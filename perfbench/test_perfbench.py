"""Tests of the benchmark itself, on inputs small enough for the unit-test suite."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import encsum.cli  # noqa: E402

from perfbench import inputs, run, tracer, workloads  # noqa: E402
from perfbench.speed import SpeedSampler  # noqa: E402


def make_run(name: str, work: Path, seed: int, encounters: int) -> run.Run:
    workload = workloads.make(name, work, seed)
    workload.encounters = encounters
    workload.setup(encsum.cli.main)
    return run.Run(workload, encsum.cli.main, workload.stages())


def plain_pass(r: run.Run) -> run.PassResult:
    with SpeedSampler() as sampler:
        return r.run_pass(None, sampler)


def traced_pass(r: run.Run) -> run.PassResult:
    t = tracer.Tracer()
    t.install()
    try:
        return r.run_pass(t, None)
    finally:
        t.uninstall()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_deterministic_per_seed_and_varies_across_seeds(name, tmp_path):
    def notes(seed):
        workload = workloads.make(name, tmp_path, seed)
        workload.encounters = 4
        return [n.to_record() for n in workload.notes()]

    assert notes(1) == notes(1)
    assert notes(1) != notes(2)


def test_padding_notes_are_charted_before_the_discharge_summary():
    notes = inputs.long_stay_notes(3, seed=5)
    discharge = {n.encounter_id: n.chart_date for n in notes if n.category == "discharge summary"}
    padding = [n for n in notes if "-pad" in n.note_id]
    assert len(padding) == 3 * inputs.PADDING_NOTES
    assert all(n.chart_date < discharge[n.encounter_id] for n in padding)


@pytest.mark.parametrize("name,encounters", [("ingest", 12), ("baselines", 6), ("extract-long", 4)])
def test_traced_and_untraced_passes_write_identical_outputs(name, encounters, tmp_path):
    r = make_run(name, tmp_path, seed=3, encounters=encounters)
    plain = plain_pass(r)
    traced = traced_pass(r)
    assert plain.failed == {} and traced.failed == {}
    assert traced.digests == plain.digests
    assert traced.trace.stats  # the traced pass did record spans


def test_corrupted_output_counts_as_failed_op(tmp_path):
    r = make_run("baselines", tmp_path, seed=3, encounters=6)
    assert plain_pass(r).failed == {}

    def corrupting_main(argv):
        code = encsum.cli.main(argv)
        if "rule-baseline" in argv:
            out = Path(argv[argv.index("--out") + 1])
            out.write_text(out.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        return code

    r.main = corrupting_main
    failed = plain_pass(r).failed
    assert list(failed) == ["rule_baseline"]
    assert failed["rule_baseline"] == ["outputs differ from the first pass"]


def test_failing_check_counts_as_failed_op(tmp_path):
    r = make_run("ingest", tmp_path, seed=3, encounters=12)
    r.stages[1].check = lambda: ["segment count mismatch"]
    assert plain_pass(r).failed == {"chunk": ["segment count mismatch"]}


@pytest.mark.parametrize("seed", [1, 2])
def test_output_cross_checks_hold(seed, tmp_path):
    # Oracle ROUGE-L F1 is 1.0 in every section; the cutoff system scores
    # exactly the sweep's best mean ROUGE-L F1.
    assert plain_pass(make_run("baselines", tmp_path / "b", seed, 6)).failed == {}
    assert plain_pass(make_run("extract-long", tmp_path / "e", seed, 4)).failed == {}


def test_ingest_trace_confirms_zero_work_predictions(tmp_path):
    r = make_run("ingest", tmp_path, seed=3, encounters=12)
    plain_pass(r)
    traced_pass(r)
    sizes = inputs.measure_sizes(r.workload.generated)
    metrics = run.per_layer(r, sizes)
    assert metrics["rouge.lcs_length.calls"]["value"] == 0
    assert metrics["faithfulness.extract_entities_gazetteer.calls"]["value"] == 0
    assert metrics["sections.find_headers.calls_per_document"]["value"] == 7.0
    assert metrics["corpus.source_sentences.calls_per_encounter"]["value"] == 1.0
    assert metrics["jsonl.write_jsonl.calls"]["value"] > 0


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    r = make_run("ingest", tmp_path, seed=3, encounters=12)
    plain_pass(r)
    traced_pass(r)
    sizes = inputs.measure_sizes(r.workload.generated)
    layer = run.per_layer(r, sizes)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in layer.items()}
    e2e = run.end_to_end(r, [0.1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
