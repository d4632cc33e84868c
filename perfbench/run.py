#!/usr/bin/env python3
"""End-to-end benchmark of the `sweetspot` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the CLI and the helpers in
this directory (`cargo build --release --offline`, into `$CARGO_TARGET_DIR`,
default `.bench_build`), makes the workload's inputs from `--seed`, measures
for `--seconds`, checks the outputs, and prints one JSON object as its last
stdout line: `correct`, `attempted`, `failed` and `metrics`.

Workloads, one per CLI command a user runs (see `WORKLOADS`):

  analyze   one process per 90-day minutely CSV trace: CSV ingest,
            cleaning and one FFT whose plan every process builds afresh.
  track     moving-window tracking over two-week traces: thousands of
            equal-length FFTs per process, so plan tables are reused.
  study     the §3.2 fleet study: trace synthesis dominates.
  fleetsim  the adaptive fleet under a binding shared budget: polling,
            §4.1 detection, §4.2 control and water-fill scheduling.

Study and fleetsim run with `--threads 1`, so a run's time does not depend
on how many cores happen to be free.

`--trace 0` times the CLI in a closed loop (one client: each invocation
starts when the previous one exits) through `perfbench-launch`, and reports
the end-to-end metrics. Each round runs the set-up invocation (the command
on its smallest input, the same for every seed) `SETUP_REPEATS` times and
then every workload input once, so set-up is sampled across the whole run.
`--trace 1` runs `perfbench-layers`, which does the same work in process
and reports the mean time per invocation of each layer.

Times are given at a fixed reference speed. On a shared virtual machine a
CPU alternates, every few seconds and with slower drifts over minutes,
between running alone and sharing its core with neighbours, which makes
every invocation up to 1.7 times slower; no percentile of raw wall times
stays put from run to run. `perfbench-launch` pins itself and its children
to one CPU and times a fixed reference loop, which uses none of the
program's code, right before and after each invocation. Each wall time is
scaled by `REFERENCE_MS` over that reference time: the time the invocation
would take on a CPU that runs the loop in `REFERENCE_MS`. A change to the
program moves it as it moves wall time; a change of neighbours mostly does
not. Latency is the median of these times for each input, averaged over
the inputs, so every input counts alike.

Outputs are checked against ground truth the inputs were built from (the
tone frequencies of the CSV traces), against invariants of the study and
fleet reports, and for byte-identical repeats.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()
MIN_ROUNDS = 5
# Set-up invocations per round, and the seed of their input: set-up does
# the same work in every run, whatever `--seed` says.
SETUP_REPEATS = 3
SETUP_SEED = 1
# Wall times are reported as if the launcher's reference loop took this long.
REFERENCE_MS = 5.0
TRACE_INTERVAL_S = 60.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the CLI and the helpers; returns the release directory."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no Cargo.toml here: run from the root of a sweetspot checkout")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "sweetspot"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release")


# ---------------------------------------------------------------- inputs

def write_trace(path, rng, samples, f_top):
    """A minutely gauge: three tones, the highest at `f_top` Hz, plus small
    noise and the faults real exports have (lost rows, `nan`, spikes)."""
    tones = [(f_top, 1.0, rng.uniform(0, 2 * math.pi))]
    for _ in range(2):
        tones.append((rng.uniform(0.05, 0.8) * f_top, rng.uniform(0.5, 2.0),
                      rng.uniform(0, 2 * math.pi)))
    base = rng.uniform(20.0, 80.0)
    lines = ["time_seconds,value"]
    for i in range(samples):
        # The first and last rows stay, so the trace spans its full length.
        u = rng.random() if 0 < i < samples - 1 else 1.0
        if u < 0.003:
            continue  # lost row
        t = i * TRACE_INTERVAL_S
        if u < 0.005:
            lines.append(f"{t:.0f},nan")
            continue
        v = base + sum(a * math.sin(2 * math.pi * f * t + p) for f, a, p in tones)
        v += rng.gauss(0.0, 0.01)
        if u < 0.0055:
            v += 100.0  # spike, dropped by the 8-MAD outlier filter
        lines.append(f"{t:.0f},{v:.5f}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def seeds(rng, count):
    return [rng.randrange(1, 2**32) for _ in range(count)]


# 90 days of minutely samples. Every file has the same length, so each
# invocation does the same amount of work; the length is not a power of two,
# so every process builds a Bluestein FFT plan from scratch.
ANALYZE_SAMPLES = 90 * 1440


def analyze_inputs(rng, work, bin_):
    truths, lines = [], []
    for k in range(3):
        path = os.path.join(work, f"analyze-{k}.csv")
        f_top = rng.uniform(0.001, 0.003)
        write_trace(path, rng, ANALYZE_SAMPLES, f_top)
        truths.append(2 * f_top)
        lines.append([bin_, "analyze", path])
    small = os.path.join(work, "setup.csv")
    write_trace(small, random.Random(SETUP_SEED), 64, 0.002)
    return {"plan": lines, "setup": [bin_, "analyze", small], "truth": truths}


TRACK_WINDOW_S, TRACK_STEP_S, TRACK_SAMPLES = 21600, 300, 14 * 1440


def track_inputs(rng, work, bin_):
    truths, lines, files = [], [], []
    flags = ["--window", str(TRACK_WINDOW_S), "--step", str(TRACK_STEP_S)]
    for k in range(4):
        path = os.path.join(work, f"track-{k}.csv")
        # Slower than the analyze traces: on a 360-sample window, the
        # re-gridding of lost rows must stay below the 1% energy cutoff.
        f_top = rng.uniform(0.0005, 0.0015)
        write_trace(path, rng, TRACK_SAMPLES, f_top)
        truths.append(2 * f_top)
        files.append(path)
        lines.append([bin_, "track", path] + flags)
    small = os.path.join(work, "setup.csv")
    write_trace(small, random.Random(SETUP_SEED), TRACK_WINDOW_S // 60 + 8, 0.002)
    return {"plan": lines, "setup": [bin_, "track", small] + flags,
            "truth": truths, "files": files}


STUDY_DEVICES = 6


def study_inputs(rng, work, bin_):
    ss = seeds(rng, 6)
    lines = [[bin_, "study", "--devices", str(STUDY_DEVICES), "--seed", str(s),
              "--threads", "1", "--json"] for s in ss]
    setup = [bin_, "study", "--devices", "1", "--seed", str(SETUP_SEED),
             "--threads", "1", "--json"]
    return {"plan": lines, "setup": setup, "seeds": ss}


# Many devices over few epochs: a fleet's cost varies with its seed mostly
# through a few devices, and more devices per invocation and more fleets
# per run average that out.
FLEET_DEVICES, FLEET_DAYS, FLEET_POLICY, FLEET_SEEDS = 240, 3, "waterfill", 12
# Cost units per epoch: about a third of what 240 uncapped controllers
# demand, so the budget binds and the water-fill scheduler throttles.
FLEET_BUDGET = 600000


def fleet_args(devices, days, budget, seed):
    return ["fleetsim", "--devices", str(devices), "--days", str(days),
            "--budget", str(budget), "--policy", FLEET_POLICY,
            "--seed", str(seed), "--threads", "1", "--json"]


def fleetsim_inputs(rng, work, bin_):
    ss = seeds(rng, FLEET_SEEDS)
    lines = [[bin_] + fleet_args(FLEET_DEVICES, FLEET_DAYS, FLEET_BUDGET, s) for s in ss]
    setup = [bin_] + fleet_args(14, 1, FLEET_BUDGET, SETUP_SEED)
    return {"plan": lines, "setup": setup, "seeds": ss}


# ---------------------------------------------------------------- checks

def near(estimate, truth, bins=0.0):
    """Within 10% of the truth, plus `bins` FFT bins of a 6-hour window and
    the CLI's 4-decimal rounding."""
    return estimate is not None and abs(estimate - truth) <= (
        0.1 * truth + bins / TRACK_WINDOW_S + 5e-5)


def check_analyze(inputs, k, text):
    rate = None
    reduce = False
    for line in text.splitlines():
        if line.startswith("estimated Nyquist rate:") and line.endswith("Hz"):
            rate = float(line.split(":")[1].strip()[:-2])
        reduce |= line.startswith("recommendation: REDUCE")
    return reduce and near(rate, inputs["truth"][k])


def expected_windows():
    return (TRACK_SAMPLES * 60 - TRACK_WINDOW_S) // TRACK_STEP_S + 1


def check_track_rates(inputs, k, windows, aliased, rates):
    truth = inputs["truth"][k]
    return (windows == expected_windows() and aliased == 0
            and all(near(r, truth, bins=2) for r in rates))


def check_track(inputs, k, text):
    rows = text.splitlines()[1:]
    rates = [float(r.split(",")[1]) for r in rows if not r.endswith(",aliased")]
    return check_track_rates(inputs, k, len(rows), len(rows) - len(rates), rates)


def check_study(inputs, k, text):
    r = json.loads(text)
    fractions = [r["oversampled_fraction"], r["undersampled_fraction"],
                 r["reducible_10x"], r["reducible_100x"], r["reducible_1000x"]]
    per_metric = [m["oversampled_fraction"] for m in r["per_metric"]]
    return (r["pairs"] == 14 * STUDY_DEVICES
            and all(0.0 <= f <= 1.0 for f in fractions + per_metric)
            and abs(fractions[0] + fractions[1] - 1.0) < 1e-9
            and fractions[4] <= fractions[3] <= fractions[2] <= fractions[0]
            and len(per_metric) == 14
            and abs(sum(per_metric) / 14 - fractions[0]) < 1e-9)


def check_fleetsim(inputs, k, text):
    r = json.loads(text)
    [row] = r["frontier"]
    shares = [row[key] for key in ("mean_coverage", "p10_coverage", "covered_fraction",
                                   "starved_fraction", "throttled_fraction")]
    return (r["devices"] == FLEET_DEVICES and r["epochs"] == FLEET_DAYS
            and row["policy"] == FLEET_POLICY
            and row["budget_per_epoch"] == FLEET_BUDGET
            and all(0.0 <= s <= 1.0 for s in shares)
            and row["total_samples"] > 0
            and row["spent_per_epoch"] <= 1.01 * FLEET_BUDGET
            and math.isclose(row["total_spent"], row["spent_per_epoch"] * FLEET_DAYS,
                             rel_tol=1e-9))


def check_layers(name, inputs, results):
    """Ground-truth checks on `perfbench-layers`' per-input results."""
    for k, res in enumerate(results):
        if name == "analyze":
            ok = near(res, inputs["truth"][k])
        elif name == "track":
            windows, aliased, lo, hi = res
            ok = check_track_rates(inputs, k, windows, aliased, [lo, hi])
        elif name == "study":
            pairs, oversampled, accuracy = res
            ok = pairs == 14 * STUDY_DEVICES and 0 < oversampled <= 1 and accuracy >= 0.8
        else:
            devices, samples, coverage = res
            ok = devices == FLEET_DEVICES and samples > 0 and 0 < coverage <= 1
        if not ok:
            return False
    return True


WORKLOADS = {
    "analyze": (analyze_inputs, check_analyze),
    "track": (track_inputs, check_track),
    "study": (study_inputs, check_study),
    "fleetsim": (fleetsim_inputs, check_fleetsim),
}


# ---------------------------------------------------------------- runs

def end_to_end(name, inputs, release, work, seconds):
    """Runs the set-up lines and the workload lines round-robin through
    perfbench-launch, whose rows are `(line, wall_ns, maxrss_kb, exit_code,
    same_output, reference_ns)`; the first `SETUP_REPEATS` lines are the
    set-up invocation."""
    plan = [inputs["setup"]] * SETUP_REPEATS + inputs["plan"]
    plan_path = os.path.join(work, "plan.tsv")
    with open(plan_path, "w") as f:
        f.write("".join("\t".join(argv) + "\n" for argv in plan))
    done = subprocess.run(
        [os.path.join(release, "perfbench-launch"), plan_path, str(seconds),
         str(MIN_ROUNDS), work],
        stdout=subprocess.PIPE, text=True, timeout=seconds + 120)
    if done.returncode != 0:
        fail("perfbench-launch failed")
    rows = [tuple(int(x) for x in line.split()) for line in done.stdout.splitlines()]
    good_lines = set(range(SETUP_REPEATS))
    for k in range(len(inputs["plan"])):
        with open(os.path.join(work, f"out-{k + SETUP_REPEATS}.txt")) as f:
            text = f.read()
        try:
            if WORKLOADS[name][1](inputs, k, text):
                good_lines.add(k + SETUP_REPEATS)
        except (ValueError, KeyError, TypeError, IndexError):
            pass
    failed = sum(1 for r in rows if r[3] != 0 or not r[4] or r[0] not in good_lines)

    def scaled_ms(r):
        return r[1] / r[5] * REFERENCE_MS

    setup = [r for r in rows if r[0] < SETUP_REPEATS]
    by_line = [[r for r in rows if r[0] == line] for line in range(SETUP_REPEATS, len(plan))]
    metrics = {
        "latency_ms": (statistics.fmean(
            statistics.median(scaled_ms(r) for r in line) for line in by_line), "ms"),
        "peak_rss_mib": (statistics.fmean(
            statistics.median(r[2] / 1024 for r in line) for line in by_line), "MiB"),
        "setup_s": (statistics.median(scaled_ms(r) / 1e3 for r in setup), "s"),
    }
    return len(rows), failed, metrics


def layers_args(name, inputs):
    if name == "analyze":
        return [argv[2] for argv in inputs["plan"]]
    if name == "track":
        return [str(TRACK_WINDOW_S), str(TRACK_STEP_S)] + inputs["files"]
    if name == "study":
        return [str(STUDY_DEVICES)] + [str(s) for s in inputs["seeds"]]
    return [str(FLEET_DEVICES), str(FLEET_DAYS), str(FLEET_BUDGET), FLEET_POLICY] + [
        str(s) for s in inputs["seeds"]]


def per_layer(name, inputs, release, seconds):
    done = subprocess.run(
        [os.path.join(release, "perfbench-layers"), name, str(seconds)]
        + layers_args(name, inputs),
        stdout=subprocess.PIPE, text=True, timeout=seconds + 120)
    if done.returncode != 0:
        fail("perfbench-layers failed")
    r = json.loads(done.stdout.splitlines()[-1])
    ok = check_layers(name, inputs, r["results"])
    metrics = {f"{span}_ms": (ms, "ms") for span, ms in r["spans_ms"].items()}
    return r["invocations"], 0 if ok else r["invocations"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    release = build()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        inputs = WORKLOADS[args.workload][0](rng, work, os.path.join(release, "sweetspot"))
        if args.trace:
            attempted, failed, metrics = per_layer(args.workload, inputs, release, args.seconds)
        else:
            attempted, failed, metrics = end_to_end(
                args.workload, inputs, release, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
