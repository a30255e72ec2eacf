"""Tests of the benchmark itself: metric names, deterministic inputs, the
correctness gate at this commit, planted wrong verdicts, and tracing.

Run with:  PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import oracle      # noqa: E402
import reference   # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+$")


def one_pass(workload, tracer=None):
    first, errors = {}, []
    phase = run.run_jobs(workload, workload.jobs, 0, first, errors, tracer)
    return phase, first, errors


def small(workload, seeded=2):
    """Keep one of each anchor and the `seeded` cheapest other jobs."""
    anchors = list({job.key: job for job in workload.jobs
                    if job.anchor}.values())
    others = [job for job in workload.jobs if not job.anchor]
    if hasattr(workload, "raw"):
        others.sort(key=lambda job: workload.raw[job.key].n)
    elif workload.name == "search":
        others.sort(key=lambda job: oracle.space_size(job.spec))
    workload.jobs = anchors + others[:seeded]
    workload.round_jobs = len(workload.jobs)
    return workload


def test_metric_names():
    names = [m["name"]
             for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics_are_scaled_round_medians():
    phase = run.Phase(round_jobs=30)
    # Three rounds of 30 jobs taking 1..30 ms: the second one on a machine
    # running at half speed, the third one with a slow job of its own.
    for index, scale in enumerate((1, 2, 1)):
        phase.records += [("job", scale * (i + 1) / 1000, "x", index)
                          for i in range(30)]
        phase.slices.append((index, scale * reference.NOMINAL_S))
    phase.records[-1] = ("job", 1.0, "x", 2)
    phase.units = 3
    metrics, tail = run.end_to_end(phase, 0.5, 30.0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert metrics[m["name"]][1] == m["unit"]
    assert metrics["jobs_per_s"][0] == pytest.approx(30 / 0.465)
    assert metrics["job_p50_ms"][0] == pytest.approx(15.5)
    # 20 ms is the latency with exactly ten jobs beyond it.
    assert metrics["job_tail_ms"][0] == pytest.approx(20.0)
    assert tail["rounds"] == 3 and tail["jobs_per_round"] == 30
    assert tail["percentile"] == pytest.approx(100 * 20 / 30)
    unscaled, _ = run.end_to_end(phase, 0.5, 30.0, scaled=False)
    assert unscaled["job_p50_ms"][0] == pytest.approx(15.5)
    assert unscaled["jobs_per_s"][0] == pytest.approx(30 / 0.93)
    phase.records = [r for r in phase.records if r[1] < 0.0195]
    assert "job_tail_ms" not in run.end_to_end(phase, 0.5, 30.0)[0]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_deterministic(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = workloads.generate(name, 3, dirs[0])
    again = workloads.generate(name, 3, dirs[1])
    other = workloads.generate(name, 4, dirs[2])
    assert first.input_digest == again.input_digest
    assert first.input_digest != other.input_digest
    assert [j.key for j in first.jobs] == [j.key for j in again.jobs]
    assert sorted(p.name for p in dirs[0].iterdir()) == \
        sorted(p.name for p in dirs[1].iterdir())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_gate_passes_at_this_commit(name, tmp_path):
    workload = small(workloads.generate(name, 5, tmp_path))
    phase, first, errors = one_pass(workload)
    failed, problems, digest = run.gate(workload, phase.records, first, errors)
    assert (failed, problems) == (0, [])
    assert digest == run.stored_digests()[name]


def test_corrupted_search_hit_fails(tmp_path):
    workload = small(workloads.generate("search", 5, tmp_path))
    phase, first, errors = one_pass(workload)
    key, (outcome, fingerprint) = next(
        (k, v) for k, v in first.items() if v[0].documents)
    outcome.documents[-1]["product"] = []
    failed, problems, _ = run.gate(workload, phase.records, first, errors)
    assert failed >= 1 and any(key in p for p in problems)


def test_missed_search_hits_fail(tmp_path, monkeypatch):
    workload = small(workloads.generate("search", 5, tmp_path))
    phase, first, errors = one_pass(workload)
    outcome = first["anchor0"][0]
    del outcome.documents[:]
    monkeypatch.setattr(workloads, "SEARCH_SAMPLE", 81)
    failed, problems, _ = run.gate(workload, phase.records, first, errors)
    assert failed >= 1 and any("missed hit" in p for p in problems)


def test_flipped_expected_verdict_fails(tmp_path):
    workload = small(workloads.generate("verify", 5, tmp_path), seeded=0)
    source = next(p for p in workload.paths.values()
                  if p.name == "leibniz_a2_b.json")
    doc = json.loads(source.read_text())
    doc["metadata"]["expected"]["leibniz"] = False
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(doc))
    workload.paths[flipped.name] = flipped
    workload.jobs.append(workloads.Job(flipped.name, flipped))
    workload.round_jobs += 1
    phase, first, errors = one_pass(workload)
    failed, problems, _ = run.gate(workload, phase.records, first, errors)
    assert failed / len(phase.records) > 0
    assert any("flipped.json" in p for p in problems)


def test_wrong_derived_verdict_fails(tmp_path):
    workload = small(workloads.generate("derive", 5, tmp_path), seeded=0)
    phase, first, errors = one_pass(workload)
    key = workload.jobs[0].key
    ly, akivis, admissible, equivalence = first[key][0]
    first[key] = ((ly, akivis, not admissible, equivalence), first[key][1])
    failed, problems, _ = run.gate(workload, phase.records, first, errors)
    assert failed >= 1 and problems


def test_inconclusive_proof_fails(tmp_path):
    workload = workloads.generate("prove", 5, tmp_path)
    report = workload.run(workload.jobs[0])
    report.extra["verdict"] = "INCONCLUSIVE"
    assert workload.check(workload.jobs[0], report)


def test_anchor_digest_mismatch_fails(tmp_path, monkeypatch):
    workload = workloads.generate("prove", 5, tmp_path)
    phase, first, errors = one_pass(workload)
    monkeypatch.setattr(run, "stored_digests", lambda: {"prove": "0" * 64})
    failed, problems, _ = run.gate(workload, phase.records, first, errors)
    assert failed == len(phase.records) and problems


def test_traced_counts_repeat_and_names_match(tmp_path):
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    counts = []
    for attempt in ("a", "b"):
        (tmp_path / attempt).mkdir()
        workload = small(workloads.generate("derive", 5, tmp_path / attempt),
                         seeded=1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            phase, _, errors = one_pass(workload, tracer)
        finally:
            tracer.uninstall()
        assert not errors
        metrics = tracing.layer_metrics(tracer, phase.units,
                                        workload.properties)
        metrics["trace.overhead_ratio"] = (0.0, "ratio")
        assert {k: u for k, (_, u) in metrics.items()} == per_layer
        counts.append({k: v for k, (v, u) in metrics.items()
                       if u in ("count", "bytes")})
        assert tracer.spans and all(s[5] is not None for s in tracer.spans)
    assert counts[0] == counts[1]
    assert counts[0]["serialize.loads"] > 0
    assert workloads.constructions.build_hom_ly.__module__ == \
        "homsuper.constructions"
    assert not hasattr(workloads.constructions.build_hom_ly, "__wrapped__")


def test_run_prints_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "prove",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prove", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
