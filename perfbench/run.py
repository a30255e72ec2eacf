"""Run one workload of the homsuper benchmark and print its result.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the package is imported from the src/ directory next to
this one, and the run fails fast when that is not the package it gets.
Load is a closed loop with one client: one process, jobs back to back,
HOMSUPER_WORKERS unset.  A run

  1. times set-up (import of homsuper plus seeded input generation and
     writing) in SETUP_PROBES fresh interpreters (probe.py) and keeps the
     median;
  2. generates the same inputs in this process, runs one warm-up job, then
     runs the job list round after round (a round is the workload's
     round_jobs consecutive jobs) until --seconds have passed and at least
     MIN_ROUNDS rounds ran;
  3. checks every output against an independent oracle and the anchor jobs
     against digests.json, outside the timed phase.

Each timing metric is computed per round and the run reports the median
over its rounds, so a stretch in which a shared machine runs slowly moves
a minority of rounds rather than the result.  Timings are also scaled by
the speed of a fixed reference computation timed between jobs (see
reference.py); the unscaled figures are in the context line.

With --trace 0 it reports the end-to-end metrics.  With --trace 1 it runs
the first round's jobs only, round after round, the first UNTRACED_SHARE of
the time untraced and the rest traced, and reports the per-layer metrics
per round with the tracing overhead.

The last line of stdout is the JSON result; the line before it is the
run's context (environment, input properties, digests, failures).  Inputs
live in a temporary directory under .perfbench/, which also receives the
result and the span file of each run.
"""

import argparse
import hashlib
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
import traceback
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("search", "verify", "derive", "prove")
SETUP_PROBES = 5
MIN_ROUNDS = 3
TAIL_BEYOND = 10
UNTRACED_SHARE = 0.4
CHILD_TIMEOUT = 900


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import homsuper from this checkout's src/ and nothing else."""
    if not (SRC / "homsuper" / "__init__.py").is_file():
        raise BenchError("no package source at %s" % (SRC / "homsuper"))
    if not (ROOT / "tests" / "naive.py").is_file():
        raise BenchError("no oracle at %s" % (ROOT / "tests" / "naive.py"))
    os.environ.pop("HOMSUPER_WORKERS", None)
    sys.path.insert(0, str(SRC))
    import homsuper
    where = Path(homsuper.__file__).resolve().parent
    if where != (SRC / "homsuper").resolve():
        raise BenchError("imported homsuper from %s, not from %s"
                         % (where, SRC))
    return homsuper


def environment():
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(ROOT)).encode())
            source.update(path.read_bytes())
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"commit": commit, "source_digest": source.hexdigest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": cores, "platform": platform.platform(),
            "machine": platform.machine()}


# --------------------------------------------------------------------------
# set-up

def measure_setup(args):
    """(median scaled set-up seconds, median raw ones, input digests) over
    SETUP_PROBES fresh interpreters, each generating into its own
    directory."""
    times = []
    raw = []
    digests = set()
    for _ in range(SETUP_PROBES):
        workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "probe.py"), args.workload,
                 str(args.seed), workdir],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed:\n" + proc.stderr)
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append(probe["setup_s"])
        raw.append(probe["raw_setup_s"])
        digests.add(probe["input_digest"])
    return statistics.median(times), statistics.median(raw), digests


# --------------------------------------------------------------------------
# timed phase

class Phase:
    """The jobs run in rounds of `round_jobs` consecutive jobs, and the
    reference slices timed between them."""

    def __init__(self, round_jobs):
        self.records = []    # (job key, seconds, fingerprint or None, round)
        self.slices = []     # (round, seconds of one reference slice)
        self.round_jobs = round_jobs
        self.units = 0       # complete rounds
        self.busy = 0.0

    def rounds(self):
        """(job latencies, speed) of each round; a speed above 1 means the
        machine ran faster than the reference's nominal speed."""
        latencies = [[] for _ in range(self.units)]
        slices = [[] for _ in range(self.units)]
        for _, seconds, _, index in self.records:
            latencies[index].append(seconds)
        for index, seconds in self.slices:
            slices[index].append(seconds)
        return [(r, reference.NOMINAL_S / statistics.mean(s))
                for r, s in zip(latencies, slices)]

    def speed(self):
        return reference.NOMINAL_S / statistics.mean(
            seconds for _, seconds in self.slices)


def run_jobs(workload, jobs, seconds, first, errors, tracer=None,
             min_rounds=1):
    """Run `jobs` cyclically in rounds of the workload's round_jobs jobs
    for `seconds`, and at least `min_rounds` rounds.

    `first` keeps each job key's first output and fingerprint for the
    gate; exceptions are recorded in `errors` and count as failed jobs.
    """
    phase = Phase(workload.round_jobs)
    started = time.perf_counter()
    since_slice = 0.0
    while (phase.units < min_rounds
           or time.perf_counter() - started < seconds):
        for number in range(phase.round_jobs):
            job = jobs[(phase.units * phase.round_jobs + number) % len(jobs)]
            job_id = len(phase.records)
            fingerprint = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = workload.run(job)
                else:
                    output = tracer.job(job_id, workload.run, job)
            except Exception:
                latency = time.perf_counter() - t0
                errors.append("%s: %s" % (job.key, traceback.format_exc()))
            else:
                latency = time.perf_counter() - t0
                fingerprint = workload.fingerprint(job, output)
                if tracer is not None:
                    tracer.count(workload.output_counts(output))
                first.setdefault(job.key, (output, fingerprint))
            phase.busy += latency
            phase.records.append((job.key, latency, fingerprint,
                                  phase.units))
            since_slice += latency
            if since_slice >= reference.REFERENCE_EVERY_S:
                phase.slices.append((phase.units, reference.slice_seconds()))
                since_slice = 0.0
        phase.slices.append((phase.units, reference.slice_seconds()))
        phase.units += 1
    return phase


# --------------------------------------------------------------------------
# correctness gate

def stored_digests():
    return json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


def gate(workload, records, first, errors):
    """Failed job count and the problems found.

    A job fails when it raised, when the oracle rejects the first output
    of its input, or when its output differs from that first output.  All
    anchor jobs fail when their digest differs from digests.json.
    """
    import workloads
    problems = list(errors)
    accepted = {}
    jobs = {job.key: job for job in workload.jobs}
    for key, (output, fingerprint) in first.items():
        try:
            found = workload.check(jobs[key], output)
        except Exception:
            found = ["oracle raised: " + traceback.format_exc()]
        if found:
            problems.extend("%s: %s" % (key, p) for p in found)
        else:
            accepted[key] = fingerprint
    anchors = {job.key: first[job.key][1] for job in workload.jobs
               if job.anchor and job.key in first}
    digest = workloads.anchor_digest(anchors)
    expected = stored_digests().get(workload.name)
    if digest != expected:
        problems.append("anchor digest %s differs from the stored %s"
                        % (digest, expected))
        for key in anchors:
            accepted.pop(key, None)
    failed = sum(1 for key, _, fingerprint, _ in records
                 if fingerprint is None or accepted.get(key) != fingerprint)
    return failed, problems, digest


# --------------------------------------------------------------------------
# metrics

def end_to_end(phase, setup_s, peak_rss_mb, scaled=True):
    """The end-to-end metrics: medians over the run's rounds of each
    round's throughput, median latency and tail latency, scaled by the
    round's speed unless `scaled` is false."""
    rounds = [(sorted(r), speed if scaled else 1.0)
              for r, speed in phase.rounds()]
    jobs = len(rounds[0][0])
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (statistics.median(
            len(r) / sum(r) / speed for r, speed in rounds), "1/s"),
        "job_p50_ms": (statistics.median(
            statistics.median(r) * speed for r, speed in rounds) * 1e3,
            "ms"),
    }
    tail = {"rounds": len(rounds), "jobs_per_round": jobs,
            "speeds": [speed for _, speed in rounds]}
    if jobs >= 2 * TAIL_BEYOND:
        # The highest percentile with at least TAIL_BEYOND jobs beyond it.
        tails = [r[-TAIL_BEYOND - 1] * speed * 1e3 for r, speed in rounds]
        metrics["job_tail_ms"] = (statistics.median(tails), "ms")
        tail["percentile"] = 100.0 * (jobs - TAIL_BEYOND) / jobs
        tail["round_tails_ms"] = tails
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics, tail


def measure(args):
    import_package()
    import workloads
    setup_s, raw_setup_s, probe_digests = measure_setup(args)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        workload = workloads.generate(args.workload, args.seed, workdir)
        if probe_digests != {workload.input_digest}:
            raise BenchError("input generation is not deterministic: %s"
                             % sorted(probe_digests | {workload.input_digest}))
        workload.run(workload.jobs[0])
        first = {}
        errors = []
        tracer = None
        if args.trace:
            import tracing
            jobs = workload.jobs[:workload.round_jobs]
            untraced = run_jobs(workload, jobs,
                                args.seconds * UNTRACED_SHARE, first, errors)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                phase = run_jobs(workload, jobs,
                                 args.seconds * (1 - UNTRACED_SHARE),
                                 first, errors, tracer)
            finally:
                tracer.uninstall()
            records = untraced.records + phase.records
        else:
            phase = run_jobs(workload, workload.jobs, args.seconds, first,
                             errors, min_rounds=MIN_ROUNDS)
            records = phase.records
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems, digest = gate(workload, records, first, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "inputs": dict(workload.properties,
                       input_digest=workload.input_digest),
        "jobs": len(records),
        "failed_ratio": failed / len(records),
        "anchor_digest": digest, "problems": problems[:20],
        "speed": phase.speed(),
    }
    if tracer is None:
        metrics, info["tail"] = end_to_end(phase, setup_s, peak_rss_mb)
        raw, _ = end_to_end(phase, raw_setup_s, peak_rss_mb, scaled=False)
        info["unscaled"] = {name: value for name, (value, _) in raw.items()}
    else:
        metrics = tracing.layer_metrics(tracer, phase.units,
                                        workload.properties, phase.speed())
        overhead = ((phase.busy * phase.speed() / phase.units)
                    / (untraced.busy * untraced.speed() / untraced.units)
                    - 1)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        info["rounds"] = {"untraced": untraced.units, "traced": phase.units}
        trace_file = OUT / ("trace-%s-seed%d.json" % (args.workload,
                                                       args.seed))
        trace_file.write_text(json.dumps(dict(tracer.to_data(), info=info)),
                              encoding="utf-8")
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return info, result


def print_result(info, result):
    for name, metric in result["metrics"].items():
        print("%-32s %16.6f %s" % (name, metric["value"], metric["unit"]))
    print("%-32s %16.6f %s" % ("failed_ratio", info["failed_ratio"], "ratio"))
    print(json.dumps({"info": info}))
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own fresh interpreter, one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError("workload %s failed" % name)
        lines = proc.stdout.splitlines()
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        print("== %s: %d jobs, failed_ratio %g, correct %s"
              % (name, result["attempted"], info["failed_ratio"],
                 result["correct"]))
        for metric, value in result["metrics"].items():
            print("%-8s %-32s %16.6f %s" % (name, metric, value["value"],
                                            value["unit"]))
            combined["metrics"]["%s.%s" % (name, metric)] = value
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="homsuper benchmark")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        OUT.mkdir(exist_ok=True)
        if args.workload == "all":
            run_all(args)
        else:
            info, result = measure(args)
            name = "result-%s-seed%d-trace%d.json" % (args.workload,
                                                      args.seed, args.trace)
            (OUT / name).write_text(json.dumps({"info": info,
                                                "result": result}),
                                    encoding="utf-8")
            print_result(info, result)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
