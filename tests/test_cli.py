import codecs
import csv
import filecmp
import json
import logging
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import fmean

import pytest
from hypothesis import given, settings, strategies as st

from encsum import cli, evaluate, labeling
from encsum.cli import main
from encsum.corpus import SPLIT_NAMES, source_sentences
from encsum.dataset import load_encounters
from encsum.faithfulness import score_sets
from encsum.jsonl import read_jsonl, write_jsonl
from encsum.pipeline import (
    ChunkConfig, chunk_encounter, merge_scores, read_merged, read_scores, read_segments,
)
from encsum.rouge import rouge_l, rouge_n
from encsum.sections import SectionName
from encsum.textproc import tokenize
from tests.conftest import output_bytes


# Scores that merge-scores, sweep and cutoff must reject.
BAD_SCORES = ["high", True, None, float("nan"), float("inf"), float("-inf")]

# What the sentence-list fuzz puts in place of one sentence field.
FUZZ_VALUES = [None, True, 0, -1, 1e30, float("nan"), "", [1], {"a": 1}]

# The sentence fields of each sentence-list file.
SENTENCE_FIELDS = {
    "segments": ("sentences", ("doc", "sent", "text")),
    "scores": ("scores", ("doc", "sent", "score")),
    "merged": ("sentences", ("doc", "sent", "score", "text")),
}


# Edits that make an encounter record malformed, and what the error says.
ENCOUNTER_EDITS = [
    pytest.param(lambda r: [1, 2], "a JSON list", id="list"),
    pytest.param(lambda r: {k: v for k, v in r.items() if k != "subject_id"},
                 "field 'subject_id'", id="no subject_id"),
    pytest.param(lambda r: {**r, "encounter_id": 7}, "field 'encounter_id'",
                 id="int encounter_id"),
    pytest.param(lambda r: {**r, "prior_notes": [{**r["prior_notes"][0], "text": 7}]},
                 "prior_notes[0]: field 'text'", id="int note text"),
    pytest.param(lambda r: {**r, "discharge_summary": [r["discharge_summary"]]},
                 "field 'discharge_summary'", id="list summary"),
    # A note that disagrees with its encounter, or has a bad chart_date,
    # used to be read without a word.
    pytest.param(
        lambda r: {**r, "prior_notes": [{**r["prior_notes"][0], "encounter_id": "other"}]},
        "prior_notes[0]: encounter_id 'other' is not the encounter's",
        id="note of another encounter"),
    pytest.param(
        lambda r: {**r, "discharge_summary": {**r["discharge_summary"], "subject_id": "other"}},
        "discharge_summary: subject_id 'other' is not the encounter's",
        id="summary of another subject"),
    pytest.param(
        lambda r: {**r, "prior_notes": [{**r["prior_notes"][0], "chart_date": "2040-13-01"}]},
        "prior_notes[0]: bad chart_date '2040-13-01'", id="bad note chart_date"),
    pytest.param(
        lambda r: {**r, "discharge_summary": {**r["discharge_summary"], "chart_date": "today"}},
        "discharge_summary: bad chart_date 'today'", id="bad summary chart_date"),
]

# The commands that read one split's encounters, and those of them that
# read section files too.
SLICE_COMMANDS = ["oracle", "pseudo-labels", "rule-baseline", "evaluate"]
SPLIT_COMMANDS = ["chunk", *SLICE_COMMANDS]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    notes = root / "notes.jsonl"
    assert run("synth-corpus", "--out", notes, "--encounters", "12", "--seed", "3") == 0
    dataset = root / "data"
    assert run(
        "--quiet", "build-dataset", "--notes", notes, "--out", dataset,
        "--seed", "11", "--require-admission",
    ) == 0
    return root


class TestBuildDataset:
    def test_layout(self, workspace):
        dataset = workspace / "data"
        for split in SPLIT_NAMES:
            assert (dataset / f"encounters__{split}.jsonl").is_file()
        assert not (dataset / "encounters.jsonl").exists()
        assert (dataset / "splits.jsonl").is_file()
        assert (dataset / "stats.json").is_file()
        assert (dataset / "stats.csv").is_file()
        for section in SectionName:
            for split in ("train", "validation", "test"):
                assert (dataset / "sections" / f"{section.value}__{split}.jsonl").is_file()

    def test_split_counts(self, workspace):
        rows = read_jsonl(workspace / "data" / "splits.jsonl")
        counts = {}
        for row in rows:
            counts[row["split"]] = counts.get(row["split"], 0) + 1
        assert counts == {"train": 9, "validation": 1, "test": 2}

    def test_encounter_files_partition_by_split(self, workspace):
        # Each encounter is in exactly one file, the one of its subject's
        # split, and each file is in encounter_id order.
        data = workspace / "data"
        splits = {r["subject_id"]: r["split"] for r in read_jsonl(data / "splits.jsonl")}
        seen = []
        for split in SPLIT_NAMES:
            records = read_jsonl(data / f"encounters__{split}.jsonl")
            ids = [r["encounter_id"] for r in records]
            assert ids == sorted(ids)
            assert {splits[r["subject_id"]] for r in records} <= {split}
            seen += ids
        assert len(seen) == len(set(seen)) == 12

    def test_rerun_byte_identical(self, workspace, tmp_path):
        other = tmp_path / "data2"
        assert run(
            "--quiet", "build-dataset", "--notes", workspace / "notes.jsonl",
            "--out", other, "--seed", "11", "--require-admission",
        ) == 0
        baseline = workspace / "data"
        for path in sorted(baseline.rglob("*")):
            if path.is_file():
                twin = other / path.relative_to(baseline)
                assert filecmp.cmp(path, twin, shallow=False), path.name

    def test_section_missing_header_yields_empty_files(self, tmp_path):
        # None of these discharge summaries carries a family history header.
        notes = []
        for i in range(4):
            notes.append({
                "note_id": f"a{i}", "subject_id": f"s{i}", "encounter_id": f"e{i}",
                "chart_date": "2040-01-01T08:00:00", "category": "admission note",
                "text": "chief complaint:\n\nfever.\n",
            })
            notes.append({
                "note_id": f"d{i}", "subject_id": f"s{i}", "encounter_id": f"e{i}",
                "chart_date": "2040-01-02T08:00:00", "category": "discharge summary",
                "text": "chief complaint:\n\nfever.\n",
            })
        src = tmp_path / "notes.jsonl"
        write_jsonl(src, notes)
        out = tmp_path / "data"
        assert run("--quiet", "build-dataset", "--notes", src, "--out", out) == 0
        fam = sum(
            len(read_jsonl(out / "sections" / f"family_history__{s}.jsonl"))
            for s in ("train", "validation", "test")
        )
        assert fam == 0
        cc = sum(
            len(read_jsonl(out / "sections" / f"chief_complaint__{s}.jsonl"))
            for s in ("train", "validation", "test")
        )
        assert cc == 4

    def test_unreadable_notes_fatal(self, tmp_path):
        assert run("--quiet", "build-dataset", "--notes", tmp_path / "nope.jsonl",
                   "--out", tmp_path / "d") == 1

    @pytest.mark.parametrize("key, value", [
        ("chief_complaint", "cc:"),
        ("family_history", ["family history:", 3]),
        ("chief_compliant", ["cc:"]),
    ])
    def test_malformed_rules_fatal(self, workspace, tmp_path, caplog, key, value):
        rules = json.loads(
            (Path(cli.__file__).parent / "data" / "section_headers.json").read_text()
        )
        rules[key] = value
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules))
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("build-dataset", "--notes", workspace / "notes.jsonl",
                       "--rules", path, "--out", tmp_path / "d") == 1
        assert "rules.json: " in caplog.text and repr(key) in caplog.text
        assert not (tmp_path / "d").exists()


class TestBaselineCommands:
    def test_oracle_reproduces_reference(self, workspace, tmp_path):
        out = tmp_path / "oracle.jsonl"
        assert run("--quiet", "oracle", "--dataset", workspace / "data",
                   "--split", "test", "--out", out) == 0
        rows = read_jsonl(out)
        assert rows and all(r["system"] == "oracle_ext" for r in rows)
        references = _references(workspace / "data", "test")
        for row in rows:
            ref = references[(row["encounter_id"], row["section"])]
            assert rouge_l(tokenize(row["text"]), tokenize(ref)).f1 == 1.0

    def test_oracle_single_section(self, workspace, tmp_path):
        out = tmp_path / "oracle_cc.jsonl"
        assert run("--quiet", "oracle", "--dataset", workspace / "data",
                   "--section", "chief_complaint", "--split", "test", "--out", out) == 0
        rows = read_jsonl(out)
        assert {r["section"] for r in rows} == {"chief_complaint"}

    def test_oracle_missing_section_usage_error(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--quiet", "oracle", "--dataset", workspace / "data",
                "--section", "no_such_section", "--out", tmp_path / "x.jsonl")
        assert exc.value.code == 2
        capsys.readouterr()

    def test_rule_baseline_concatenates_priors(self, workspace, tmp_path):
        out = tmp_path / "rule.jsonl"
        assert run("--quiet", "rule-baseline", "--dataset", workspace / "data",
                   "--section", "social_history", "--split", "test", "--out", out) == 0
        rows = read_jsonl(out)
        assert rows and all(r["system"] == "rule_based_ext" for r in rows)
        references = _references(workspace / "data", "test")
        for row in rows:
            # the synthetic admission note contains the reference body verbatim
            ref = references[(row["encounter_id"], row["section"])]
            assert ref in row["text"]

    def test_pseudo_labels_wire_format(self, workspace, tmp_path):
        out = tmp_path / "labels.jsonl"
        assert run("--quiet", "pseudo-labels", "--dataset", workspace / "data",
                   "--section", "chief_complaint", "--split", "train", "--out", out) == 0
        rows = read_jsonl(out)
        assert rows
        for row in rows:
            assert set(row) == {"encounter_id", "section", "positives", "pairs"}
            keys = {tuple(p["src"]) for p in row["pairs"]}
            assert {tuple(p) for p in row["positives"]} == keys
            for pair in row["pairs"]:
                assert 0.0 <= pair["score"] <= 1.0

    def test_undecodable_dataset_line_fatal(self, workspace, tmp_path, caplog):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        encounters = data / "encounters__train.jsonl"
        lines = encounters.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[0] = lines[0][: len(lines[0]) // 2] + "\n"
        encounters.write_text("".join(lines), encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("oracle", "--dataset", data, "--split", "train",
                       "--out", tmp_path / "o.jsonl") == 1
        assert "encounters__train.jsonl:1" in caplog.text

    @pytest.mark.parametrize("edit, message", ENCOUNTER_EDITS)
    def test_malformed_encounter_record_fatal(self, workspace, tmp_path, caplog, edit, message):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        _edit_first_record(data / "encounters__train.jsonl", edit)
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("oracle", "--dataset", data, "--split", "train",
                       "--out", tmp_path / "o.jsonl") == 1
        assert f"encounters__train.jsonl:1: not an encounter record: {message}" in caplog.text

    # A command reads its split's encounter file whole: a fault in its last
    # record is fatal, and leaves the previous output as it was. chunk's
    # case is TestPipelineCommands.test_failing_chunk_leaves_old_file.
    @pytest.mark.parametrize("command", SLICE_COMMANDS)
    def test_malformed_last_encounter_fatal(self, workspace, tmp_path, caplog, command):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        lineno = _spoil_last_train_encounter(data)
        argv, out = _split_argv(command, data, tmp_path)
        old = out / "report.csv" if command == "evaluate" else out
        old.parent.mkdir(parents=True, exist_ok=True)
        old.write_bytes(b'{"old": 1}\n')
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run(*argv) == 1
        assert f"encounters__train.jsonl:{lineno}: {SPOILED}" in caplog.text
        _assert_left_as_it_was(old, b'{"old": 1}\n')

    @pytest.mark.parametrize("command", SPLIT_COMMANDS)
    def test_other_split_not_read(self, workspace, tmp_path, command):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        argv, out = _split_argv(command, data, tmp_path)
        assert run("--quiet", *argv) == 0
        clean = output_bytes(out)
        (data / "encounters__test.jsonl").write_text("not json\n", encoding="utf-8")
        assert run("--quiet", *argv) == 0
        assert output_bytes(out) == clean

    @pytest.mark.parametrize("command", SPLIT_COMMANDS)
    def test_old_layout_fatal(self, workspace, tmp_path, caplog, capsys, command):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        records = []
        for split in SPLIT_NAMES:
            records += read_jsonl(data / f"encounters__{split}.jsonl")
            (data / f"encounters__{split}.jsonl").unlink()
        write_jsonl(data / "encounters.jsonl", sorted(records, key=lambda r: r["encounter_id"]))
        argv, _ = _split_argv(command, data, tmp_path)
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run(*argv) == 1
        assert f"missing {data / 'encounters__train.jsonl'}" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    # The section file is read against the encounter file, which comes
    # first: a fault in it is the one reported.
    @pytest.mark.parametrize("command", SLICE_COMMANDS)
    def test_encounter_fault_reported_before_other_file_fault(
        self, workspace, tmp_path, caplog, command
    ):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        argv, _ = _split_argv(command, data, tmp_path)
        _edit_first_record(data / "sections/chief_complaint__train.jsonl", lambda r: [1])
        _edit_first_record(data / "encounters__train.jsonl", lambda r: [1])
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run(*argv) == 1
        assert "encounters__train.jsonl:1: not an encounter record: a JSON list" in caplog.text
        assert "not a section record" not in caplog.text

    @pytest.mark.parametrize("edit, message", [
        (lambda r: [1, 2], "a JSON list"),
        (lambda r: {**r, "encounter_id": None}, "field 'encounter_id'"),
        (lambda r: {**r, "start": "3"}, "field 'start'"),
        (lambda r: {**r, "end": True}, "field 'end'"),
        (lambda r: {**r, "section": "chief_compliant"}, "unknown section 'chief_compliant'"),
    ], ids=["list", "null encounter_id", "str start", "bool end", "unknown section"])
    def test_malformed_section_record_fatal(self, workspace, tmp_path, caplog, edit, message):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        _edit_first_record(data / "sections" / "chief_complaint__train.jsonl", edit)
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("oracle", "--dataset", data, "--split", "train",
                       "--out", tmp_path / "o.jsonl") == 1
        assert f"chief_complaint__train.jsonl:1: not a section record: {message}" in caplog.text

    def test_repeated_encounter_id_fatal(self, workspace, tmp_path, caplog):
        # The later record used to replace the earlier one without a word.
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        encounters = data / "encounters__train.jsonl"
        lines = encounters.read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])
        repeat = json.dumps({**first, "prior_notes": []}) + "\n"
        encounters.write_text("".join(lines) + repeat, encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("rule-baseline", "--dataset", data, "--split", "train",
                       "--out", tmp_path / "r.jsonl") == 1
        expected = (
            f"encounters__train.jsonl:{len(lines) + 1}: repeated encounter_id "
            f"{first['encounter_id']!r}"
        )
        assert expected in caplog.text

    # oracle and rule-baseline used to skip such an instance with a warning,
    # and evaluate raised a bare KeyError.
    @pytest.mark.parametrize("command", ["oracle", "rule-baseline", "evaluate"])
    def test_instance_without_encounter_fatal(self, workspace, tmp_path, caplog, command):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        [_, instance, *_] = read_jsonl(data / "sections" / "chief_complaint__train.jsonl")
        encounters = data / "encounters__train.jsonl"
        kept = [r for r in read_jsonl(encounters) if r["encounter_id"] != instance["encounter_id"]]
        write_jsonl(encounters, kept)
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run(*_train_argv(command, data, tmp_path, instance["encounter_id"])) == 1
        expected = (
            f"chief_complaint__train.jsonl:2: no encounter record for {instance['encounter_id']!r}"
        )
        assert expected in caplog.text

    # oracle used to write two summaries for the encounter, and evaluate to
    # score it twice.
    @pytest.mark.parametrize("command", ["oracle", "rule-baseline", "evaluate"])
    def test_repeated_section_encounter_fatal(self, workspace, tmp_path, caplog, command):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = data / "sections" / "chief_complaint__train.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + lines[:1]), encoding="utf-8")
        encounter = json.loads(lines[0])["encounter_id"]
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run(*_train_argv(command, data, tmp_path, encounter)) == 1
        expected = (
            f"chief_complaint__train.jsonl:{len(lines) + 1}: repeated encounter_id {encounter!r}"
        )
        assert expected in caplog.text

    # evaluate used to score the chief-complaint reference against the
    # family-history summaries, under a family_history row.
    @pytest.mark.parametrize("command", ["oracle", "rule-baseline", "evaluate"])
    def test_section_record_of_other_section_fatal(self, workspace, tmp_path, caplog, command):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = data / "sections" / "chief_complaint__train.jsonl"
        _edit_first_record(path, lambda r: {**r, "section": "family_history"})
        encounter = read_jsonl(path)[0]["encounter_id"]
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run(*_train_argv(command, data, tmp_path, encounter)) == 1
        expected = (
            "chief_complaint__train.jsonl:1: "
            "section 'family_history' in a 'chief_complaint' section file"
        )
        assert expected in caplog.text

    @pytest.mark.parametrize("command", ["oracle", "pseudo-labels"])
    def test_source_pool_segmented_once_per_encounter(
        self, workspace, tmp_path, monkeypatch, command
    ):
        calls = []
        segment = labeling.source_sentences

        def counting(encounter, **kwargs):
            calls.append(encounter.encounter_id)
            return segment(encounter, **kwargs)

        monkeypatch.setattr(labeling, "source_sentences", counting)
        assert run("--quiet", command, "--dataset", workspace / "data",
                   "--split", "train", "--out", tmp_path / "out.jsonl") == 0
        assert calls and len(calls) == len(set(calls))

    def test_oracle_aligns_encounter_by_encounter(self, workspace, tmp_path, monkeypatch):
        # All of an encounter's sections are aligned before the next encounter's
        # pool is built, and the rows still come out section by section.
        pools, aligned = {}, []
        segment, extract = labeling.source_sentences, labeling.oracle_extract

        def remembering(encounter, **kwargs):
            pool = segment(encounter, **kwargs)
            pools[id(pool)] = (encounter.encounter_id, pool)
            return pool

        def recording(refs, pool, lcs_pool):
            aligned.append(pools[id(pool)][0])
            return extract(refs, pool, lcs_pool)

        monkeypatch.setattr(labeling, "source_sentences", remembering)
        monkeypatch.setattr(labeling, "oracle_extract", recording)
        out = tmp_path / "out.jsonl"
        assert run("--quiet", "oracle", "--dataset", workspace / "data",
                   "--split", "train", "--out", out) == 0
        runs = [enc for i, enc in enumerate(aligned) if i == 0 or aligned[i - 1] != enc]
        assert len(runs) == len(set(runs)) > 1
        rows = [(r["section"], r["encounter_id"]) for r in read_jsonl(out)]
        files = [
            (section.value, r["encounter_id"])
            for section in SectionName
            for r in read_jsonl(workspace / "data" / "sections" / f"{section.value}__train.jsonl")
        ]
        assert rows == files


def _train_argv(command, data, tmp_path, encounter_id):
    """Arguments running ``command`` on the chief-complaint train instances of
    ``data``; evaluate scores one summary, for ``encounter_id``."""
    argv = [command, "--dataset", data, "--split", "train", "--section", "chief_complaint"]
    if command == "evaluate":
        systems = tmp_path / "sys_x.jsonl"
        write_jsonl(systems, [{"encounter_id": encounter_id,
                               "section": "chief_complaint", "system": "x", "text": "x"}])
        return argv + ["--systems", systems, "--out", tmp_path / "report"]
    return argv + ["--out", tmp_path / "out.jsonl"]


def _split_argv(command, data, tmp_path):
    """Arguments running ``command`` on the train split of ``data``, and its ``--out``."""
    if command == "chunk":
        out = tmp_path / "out.jsonl"
        return [command, "--dataset", data, "--split", "train", "--out", out], out
    [instance, *_] = read_jsonl(data / "sections" / "chief_complaint__train.jsonl")
    argv = _train_argv(command, data, tmp_path, instance["encounter_id"])
    return argv, argv[-1]


SPOILED = "not an encounter record: discharge_summary: bad chart_date 'today'"


def _spoil_last_train_encounter(data):
    """Give the last record of ``data``'s train encounter file a bad
    chart_date, which ``SPOILED`` reports; returns its line number."""
    path = data / "encounters__train.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    last = json.loads(lines[-1])
    last["discharge_summary"]["chart_date"] = "today"
    lines[-1] = json.dumps(last) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return len(lines)


def _edit_first_record(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = json.dumps(edit(json.loads(lines[0]))) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _references(dataset, split):
    out = {}
    for section in SectionName:
        for row in read_jsonl(dataset / "sections" / f"{section.value}__{split}.jsonl"):
            out[(row["encounter_id"], row["section"])] = row["text"]
    return out


@pytest.fixture(scope="module")
def scored_pipeline(workspace, tmp_path_factory):
    """chunk -> synthetic scores -> merge, shared by the sweep/cutoff tests."""
    root = tmp_path_factory.mktemp("scored")
    segments = root / "segments.jsonl"
    assert run("--quiet", "chunk", "--dataset", workspace / "data",
               "--split", "validation", "--max-tokens", "64", "--out", segments) == 0
    references = _references(workspace / "data", "validation")
    ref_texts = {}
    for (enc, _), text in references.items():
        ref_texts.setdefault(enc, []).append(text.lower())
    score_rows = []
    for seg in read_jsonl(segments):
        body = "\n".join(ref_texts.get(seg["encounter_id"], []))
        score_rows.append({
            "segment_id": seg["segment_id"],
            "scores": [
                {"doc": s["doc"], "sent": s["sent"],
                 "score": 0.9 if s["text"].lower() in body else 0.1}
                for s in seg["sentences"]
            ],
        })
    scores = root / "scores.jsonl"
    write_jsonl(scores, score_rows)
    merged = root / "merged.jsonl"
    assert run("--quiet", "merge-scores", "--segments", segments,
               "--scores", scores, "--out", merged) == 0
    return {"root": root, "segments": segments, "scores": scores, "merged": merged}


def _assert_left_as_it_was(out, old: bytes):
    """``out`` holds ``old``, and no temporary file of a writer is left beside it."""
    assert out.read_bytes() == old
    assert list(out.parent.glob(f".{out.name}.*.tmp")) == []


class TestPipelineCommands:
    # chunk and merge-scores write each row as they make it. A run that
    # fails leaves the previous output file as it was, even when the fault
    # is met after some rows are written, as in merge-scores.
    def test_failing_chunk_leaves_old_file(self, workspace, tmp_path, caplog):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        lineno = _spoil_last_train_encounter(data)
        out = tmp_path / "out" / "segments.jsonl"
        out.parent.mkdir()
        out.write_bytes(b'{"old": 1}\n')
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("chunk", "--dataset", data, "--split", "train", "--out", out) == 1
        assert f"encounters__train.jsonl:{lineno}: {SPOILED}" in caplog.text
        _assert_left_as_it_was(out, b'{"old": 1}\n')

    def test_failing_merge_leaves_old_file(self, workspace, tmp_path, caplog):
        segments = tmp_path / "segments.jsonl"
        assert run("--quiet", "chunk", "--dataset", workspace / "data", "--split", "train",
                   "--max-tokens", "64", "--out", segments) == 0
        *scored, unscored = read_jsonl(segments)
        assert scored[0]["encounter_id"] < unscored["encounter_id"]
        scores = tmp_path / "scores.jsonl"
        write_jsonl(scores, [
            {"segment_id": seg["segment_id"],
             "scores": [{"doc": s["doc"], "sent": s["sent"], "score": 0.5}
                        for s in seg["sentences"]]}
            for seg in scored
        ])
        out = tmp_path / "out" / "merged.jsonl"
        out.parent.mkdir()
        out.write_bytes(b'{"old": 1}\n')
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("merge-scores", "--segments", segments, "--scores", scores,
                       "--out", out) == 1
        assert f"{scores}: no score list for segment {unscored['segment_id']}" in caplog.text
        _assert_left_as_it_was(out, b'{"old": 1}\n')

    def test_chunk_respects_budget(self, scored_pipeline):
        for seg in read_jsonl(scored_pipeline["segments"]):
            assert sum(len(tokenize(s["text"])) for s in seg["sentences"]) <= 64

    def test_merge_restores_source_order(self, scored_pipeline):
        for row in read_jsonl(scored_pipeline["merged"]):
            keys = [(s["doc"], s["sent"]) for s in row["sentences"]]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))

    def test_sweep_then_cutoff(self, workspace, scored_pipeline, tmp_path):
        sweep_file = tmp_path / "sweep.json"
        assert run("--quiet", "sweep", "--dataset", workspace / "data",
                   "--section", "past_medical_history", "--merged",
                   scored_pipeline["merged"], "--out", sweep_file) == 0
        result = json.loads(sweep_file.read_text())
        assert result["chosen_threshold"] in result["thresholds"]
        idx = result["thresholds"].index(result["chosen_threshold"])
        assert result["mean_rouge_l_f1"][idx] == max(result["mean_rouge_l_f1"])

        out = tmp_path / "cut.jsonl"
        assert run("--quiet", "cutoff", "--merged", scored_pipeline["merged"],
                   "--section", "past_medical_history", "--system", "ext_sys",
                   "--sweep", sweep_file, "--out", out) == 0
        rows = read_jsonl(out)
        assert rows and all(r["system"] == "ext_sys" for r in rows)

    def test_cutoff_above_max_emits_empty(self, scored_pipeline, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert run("--quiet", "cutoff", "--merged", scored_pipeline["merged"],
                   "--section", "chief_complaint", "--threshold", "2.0",
                   "--out", out) == 0
        assert all(r["text"] == "" for r in read_jsonl(out))

    @pytest.mark.parametrize("bad", BAD_SCORES)
    def test_merge_rejects_bad_score(self, scored_pipeline, tmp_path, caplog, bad):
        rows = read_jsonl(scored_pipeline["scores"])
        rows[0]["scores"][0]["score"] = bad
        scores = tmp_path / "bad_scores.jsonl"
        write_jsonl(scores, rows)
        with caplog.at_level(logging.ERROR):
            assert run("--quiet", "merge-scores", "--segments", scored_pipeline["segments"],
                       "--scores", scores, "--out", tmp_path / "m.jsonl") == 1
        assert any(str(scores) in r.message and f"segment {rows[0]['segment_id']}" in r.message
                   for r in caplog.records)

    # "high" used to crash cutoff with a TypeError traceback, and NaN used to
    # pass through sweep with exit 0.
    @pytest.mark.parametrize("command", ["sweep", "cutoff"])
    @pytest.mark.parametrize("bad", BAD_SCORES)
    def test_merged_bad_score_fatal(self, workspace, scored_pipeline, tmp_path, caplog,
                                    command, bad):
        rows = read_jsonl(scored_pipeline["merged"])
        rows[0]["sentences"][0]["score"] = bad
        merged = tmp_path / "bad_merged.jsonl"
        write_jsonl(merged, rows)
        if command == "sweep":
            argv = ["sweep", "--dataset", workspace / "data", "--section", "past_medical_history",
                    "--merged", merged, "--out", tmp_path / "sweep.json"]
        else:
            argv = ["cutoff", "--merged", merged, "--section", "past_medical_history",
                    "--threshold", "0.5", "--out", tmp_path / "cut.jsonl"]
        with caplog.at_level(logging.ERROR):
            assert run("--quiet", *argv) == 1
        assert any(str(merged) in r.message and f"encounter {rows[0]['encounter_id']}" in r.message
                   for r in caplog.records)

    @pytest.mark.parametrize("edit, message", [
        (lambda r: [1, 2], "not a segment record: a JSON list"),
        (lambda r: {k: v for k, v in r.items() if k != "sentences"},
         "not a segment record: field 'sentences'"),
        (lambda r: {**r, "sentences": [{"doc": 0, "sent": 0}]},
         "not a segment record: segment enc-0011/0, sentences[0]: "
         "field 'text' missing or not of type str"),
    ], ids=["list", "no sentences", "no text"])
    def test_malformed_segment_record_fatal(self, scored_pipeline, tmp_path, caplog,
                                            edit, message):
        segments = tmp_path / "segments.jsonl"
        shutil.copy(scored_pipeline["segments"], segments)
        _edit_first_record(segments, edit)
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("merge-scores", "--segments", segments,
                       "--scores", scored_pipeline["scores"], "--out", tmp_path / "m.jsonl") == 1
        assert f"segments.jsonl:1: {message}" in caplog.text

    def test_repeated_segment_id_fatal(self, scored_pipeline, tmp_path, caplog):
        rows = read_jsonl(scored_pipeline["segments"])
        segments = tmp_path / "segments.jsonl"
        write_jsonl(segments, rows + [rows[0]])
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("merge-scores", "--segments", segments,
                       "--scores", scored_pipeline["scores"], "--out", tmp_path / "m.jsonl") == 1
        expected = f"segments.jsonl:{len(rows) + 1}: repeated segment_id {rows[0]['segment_id']!r}"
        assert expected in caplog.text

    # A repeated key used to double that sentence's text in the merged file.
    def test_repeated_sentence_in_segment_fatal(self, scored_pipeline, tmp_path, caplog):
        segments = tmp_path / "segments.jsonl"
        shutil.copy(scored_pipeline["segments"], segments)
        first = read_jsonl(segments)[0]
        _edit_first_record(segments, lambda r: {**r, "sentences": r["sentences"] * 2})
        out = tmp_path / "m.jsonl"
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("merge-scores", "--segments", segments,
                       "--scores", scored_pipeline["scores"], "--out", out) == 1
        key = (first["sentences"][0]["doc"], first["sentences"][0]["sent"])
        expected = (
            f"segments.jsonl:1: not a segment record: segment {first['segment_id']}: "
            f"sentence {key} repeated"
        )
        assert expected in caplog.text
        assert not out.exists()

    # Negative indices used to be merged, swept and cut off with exit 0.
    @pytest.mark.parametrize("where", ["segments", "scores", "merged"])
    def test_negative_sentence_key_fatal(self, workspace, scored_pipeline, tmp_path, caplog,
                                         where):
        negative = {"doc": -1, "sent": -5}
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("segments", "scores", "merged")}
        for name, path in paths.items():
            shutil.copy(scored_pipeline[name], path)
        list_field = {"segments": "sentences", "scores": "scores", "merged": "sentences"}[where]
        _edit_first_record(paths[where], lambda r: {
            **r, list_field: [{**r[list_field][0], **negative}, *r[list_field][1:]]
        })
        if where == "segments":
            # The score file gives the same key, so only the index is wrong.
            _edit_first_record(paths["scores"], lambda r: {
                **r, "scores": [{**r["scores"][0], **negative}, *r["scores"][1:]]
            })
        out = tmp_path / "out.jsonl"
        if where == "merged":
            argv = ["cutoff", "--merged", paths["merged"], "--section", "past_medical_history",
                    "--threshold", "0.5", "--out", out]
        else:
            argv = ["merge-scores", "--segments", paths["segments"], "--scores", paths["scores"],
                    "--out", out]
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run(*argv) == 1
        assert f"{where}.jsonl:1: " in caplog.text
        assert "sentence (-1, -5): doc and sent must be at least 0" in caplog.text
        assert not out.exists()

    def test_uncovered_segment_names_score_file(self, scored_pipeline, tmp_path):
        rows = read_jsonl(scored_pipeline["scores"])
        line, row = next((i, r) for i, r in enumerate(rows, 1) if len(r["scores"]) > 1)
        missing = row["scores"].pop()
        scores = tmp_path / "scores.jsonl"
        write_jsonl(scores, rows)
        proc = subprocess.run(
            [sys.executable, "-m", "encsum.cli", "merge-scores",
             "--segments", str(scored_pipeline["segments"]), "--scores", str(scores),
             "--out", str(tmp_path / "m.jsonl")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert (
            f"{scores}:{line}: score list for segment {row['segment_id']} does not cover its "
            f"sentences (missing [({missing['doc']}, {missing['sent']})], extra [])"
        ) in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("edit, message", [
        (lambda r: [1, 2], "not a scores record: a JSON list"),
        (lambda r: {"segment_id": r["segment_id"]}, "not a scores record: field 'scores'"),
        (lambda r: {**r, "scores": [{**r["scores"][0], "doc": "0"}]},
         "not a scores record: segment {id}, scores[0]: field 'doc'"),
        (lambda r: {**r, "scores": r["scores"] + [dict(r["scores"][0], score=0.5)]},
         "not a scores record: segment {id}: sentence ({doc}, {sent}) repeated"),
    ], ids=["list", "no scores", "str doc", "repeated sentence"])
    def test_malformed_scores_record_fatal(self, scored_pipeline, tmp_path, caplog,
                                           edit, message):
        scores = tmp_path / "scores.jsonl"
        shutil.copy(scored_pipeline["scores"], scores)
        first = read_jsonl(scores)[0]
        _edit_first_record(scores, edit)
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("merge-scores", "--segments", scored_pipeline["segments"],
                       "--scores", scores, "--out", tmp_path / "m.jsonl") == 1
        first_sentence = first["scores"][0]
        expected = message.format(
            id=first["segment_id"], doc=first_sentence["doc"], sent=first_sentence["sent"]
        )
        assert f"scores.jsonl:1: {expected}" in caplog.text

    # A repeated row used to win silently, and an orphan row was dropped.
    @pytest.mark.parametrize("where", ["repeated", "orphan"])
    def test_scores_row_repeated_or_orphan_fatal(self, scored_pipeline, tmp_path, caplog, where):
        rows = read_jsonl(scored_pipeline["scores"])
        if where == "repeated":
            extra = {**rows[0], "scores": [dict(s, score=0.5) for s in rows[0]["scores"]]}
            expected = (
                f"scores.jsonl:{len(rows) + 1}: repeated segment_id {rows[0]['segment_id']!r}"
            )
        else:
            extra = {**rows[0], "segment_id": "no-such-encounter/0"}
            expected = (
                f"scores.jsonl:{len(rows) + 1}: score row for segment 'no-such-encounter/0', "
                f"which {scored_pipeline['segments']} does not hold"
            )
        scores = tmp_path / "scores.jsonl"
        write_jsonl(scores, rows + [extra])
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("merge-scores", "--segments", scored_pipeline["segments"],
                       "--scores", scores, "--out", tmp_path / "m.jsonl") == 1
        assert expected in caplog.text

    @pytest.mark.parametrize("command", ["sweep", "cutoff"])
    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows + [dict(rows[0], sentences=rows[0]["sentences"][:1])],
         "merged.jsonl:{n}: repeated encounter_id {id!r}"),
        (lambda rows: [dict(rows[0], sentences=rows[0]["sentences"] * 2), *rows[1:]],
         "merged.jsonl:1: not a merged-scores record: "
         "encounter {id}: sentence ({doc}, {sent}) repeated"),
        (lambda rows: [[1, 2], *rows[1:]],
         "merged.jsonl:1: not a merged-scores record: a JSON list"),
        (lambda rows: [dict(rows[0], sentences=[{k: v for k, v in rows[0]["sentences"][0].items()
                                                 if k != "text"}]), *rows[1:]],
         "merged.jsonl:1: not a merged-scores record: encounter {id}, sentences[0]: field 'text'"),
    ], ids=["repeated encounter", "repeated sentence", "list", "no text"])
    def test_malformed_merged_fatal(self, workspace, scored_pipeline, tmp_path, caplog,
                                    command, edit, message):
        # cutoff used to keep the last of two records for one encounter.
        rows = read_jsonl(scored_pipeline["merged"])
        merged = tmp_path / "merged.jsonl"
        write_jsonl(merged, edit(rows))
        if command == "sweep":
            argv = ["sweep", "--dataset", workspace / "data", "--section", "past_medical_history",
                    "--merged", merged, "--out", tmp_path / "sweep.json"]
        else:
            argv = ["cutoff", "--merged", merged, "--section", "past_medical_history",
                    "--threshold", "0.5", "--out", tmp_path / "cut.jsonl"]
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run(*argv) == 1
        first = rows[0]["sentences"][0]
        expected = message.format(
            n=len(rows) + 1, id=rows[0]["encounter_id"], doc=first["doc"], sent=first["sent"]
        )
        assert expected in caplog.text

    # [1] and "high" used to end in a TypeError traceback, a missing threshold
    # logged only 'chosen_threshold', and NaN gave all-empty summaries. A
    # sweep of another section or of none, a repeated key (the later value
    # won) and an escaped lone surrogate used to exit 0.
    @pytest.mark.parametrize("content, message", [
        ("[1]\n", "not a sweep-result record: a JSON list"),
        ('{"chosen_threshold": "high"}\n',
         "'chosen_threshold' must be a finite number, got 'high'"),
        ('{"chosen_threshold": NaN}\n', "'chosen_threshold' must be a finite number, got nan"),
        ('{"thresholds": [0.5]}\n', "'chosen_threshold' must be a finite number, got None"),
        ("{\n", "Expecting"),
        ('{"chosen_threshold": 0.5, "section": "chief_complaint"}\n',
         "a sweep for section 'chief_complaint', not 'past_medical_history'"),
        ('{"chosen_threshold": 0.5}\n', "a sweep for section None, not 'past_medical_history'"),
        ('{"chosen_threshold": 0.5, "chosen_threshold": 0.9, "section": "past_medical_history"}',
         "repeated key 'chosen_threshold'"),
        ('{"chosen_threshold": 0.5, "section": "past_medical_history", "x": "\\ud800"}',
         "a string escapes an unpaired surrogate"),
    ], ids=["list", "string", "nan", "missing", "not json", "other section", "no section",
            "repeated key", "lone surrogate"])
    def test_bad_sweep_file_fatal(self, scored_pipeline, tmp_path, caplog, content, message):
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(content, encoding="utf-8")
        out = tmp_path / "cut.jsonl"
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("cutoff", "--merged", scored_pipeline["merged"], "--section",
                       "past_medical_history", "--sweep", sweep_file, "--out", out) == 1
        assert f"sweep.json: {message}" in caplog.text
        assert not out.exists()

    # nan used to exit 0 and write all-empty summaries.
    @pytest.mark.parametrize("threshold", ["nan", "inf", "high"])
    def test_bad_threshold_usage_error(self, scored_pipeline, tmp_path, capsys, threshold):
        out = tmp_path / "cut.jsonl"
        with pytest.raises(SystemExit) as exc:
            run("--quiet", "cutoff", "--merged", scored_pipeline["merged"], "--section",
                "past_medical_history", "--threshold", threshold, "--out", out)
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_readers_round_trip(self, workspace, scored_pipeline):
        # read_segments returns what chunk wrote, and read_merged what
        # merge_scores made of the segment and score files.
        encounters = load_encounters(workspace / "data", "validation")
        segments_by_id = read_segments(scored_pipeline["segments"])
        by_encounter = {}
        for segment in segments_by_id.values():
            by_encounter.setdefault(segment.encounter_id, []).append(segment)
        for encounter_id, segments in by_encounter.items():
            pool = source_sentences(encounters[encounter_id])
            assert segments == chunk_encounter(pool, ChunkConfig(max_tokens=64), encounter_id)
        scores = read_scores(scored_pipeline["scores"], segments_by_id, scored_pipeline["segments"])
        assert read_merged(scored_pipeline["merged"]) == {
            encounter_id: merge_scores(segments, scores)
            for encounter_id, segments in by_encounter.items()
        }

    # One field of one sentence of the first row replaced or deleted: the
    # command succeeds, or fails with exit 1 and <file>:1: and no traceback.
    # A doc or sent set to 0 is a valid key and may no longer match the other
    # file's keys; that error names the score file and the segment instead.
    @settings(max_examples=100, deadline=None)
    @given(where=st.sampled_from(sorted(SENTENCE_FIELDS)), data=st.data())
    def test_fuzzed_sentence_field(self, scored_pipeline, where, data):
        root = scored_pipeline["root"] / "fuzz"
        root.mkdir(exist_ok=True)
        paths = {name: root / f"{name}.jsonl" for name in SENTENCE_FIELDS}
        for name, path in paths.items():
            shutil.copy(scored_pipeline[name], path)
        list_field, fields = SENTENCE_FIELDS[where]
        first = read_jsonl(paths[where])[0]
        i = data.draw(st.integers(0, len(first[list_field]) - 1), label="sentence")
        field = data.draw(st.sampled_from(fields), label="field")
        value = data.draw(st.sampled_from(["delete", *FUZZ_VALUES]), label="value")
        sentence = dict(first[list_field][i])
        if value == "delete":
            del sentence[field]
        else:
            sentence[field] = value
        first[list_field][i] = sentence
        _edit_first_record(paths[where], lambda r: first)
        if where == "merged":
            argv = ["cutoff", "--merged", paths["merged"], "--section", "past_medical_history",
                    "--threshold", "0.5", "--out", root / "out.jsonl"]
        else:
            argv = ["merge-scores", "--segments", paths["segments"],
                    "--scores", paths["scores"], "--out", root / "out.jsonl"]
        errors = []
        handler = logging.Handler(logging.ERROR)
        handler.emit = lambda record: errors.append(record.getMessage())
        logging.getLogger("encsum").addHandler(handler)
        try:
            # An exception that main does not catch, a traceback from the
            # console script, fails the test here.
            code = run("--quiet", *argv)
        finally:
            logging.getLogger("encsum").removeHandler(handler)
        assert code in (0, 1)
        assert len(errors) == code
        uncovered = (f"{paths['scores']}:1: score list for segment {first.get('segment_id')} "
                     "does not cover its sentences")
        for message in errors:
            if message.startswith(uncovered):
                assert where != "merged" and field in ("doc", "sent") and value == 0
            else:
                assert message.startswith(f"{paths[where]}:1: "), message

    def test_merge_with_missing_scores_fatal(self, scored_pipeline, tmp_path):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        assert run("--quiet", "merge-scores", "--segments", scored_pipeline["segments"],
                   "--scores", empty, "--out", tmp_path / "m.jsonl") == 1


@pytest.fixture(scope="module")
def evaluated(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("eval")
    oracle = root / "sys_oracle.jsonl"
    rule = root / "sys_rule.jsonl"
    assert run("--quiet", "oracle", "--dataset", workspace / "data",
               "--split", "test", "--out", oracle) == 0
    assert run("--quiet", "rule-baseline", "--dataset", workspace / "data",
               "--split", "test", "--out", rule) == 0
    report = root / "report"
    assert run("--quiet", "evaluate", "--dataset", workspace / "data",
               "--systems", str(root / "sys_*.jsonl"), "--split", "test",
               "--out", report) == 0
    return {"root": root, "report": report}


# The documented report.csv columns, in order.
REPORT_HEADER = (
    "section,system,instances,rouge1_p,rouge1_r,rouge1_f1,rouge2_p,rouge2_r,rouge2_f1,"
    "rougeL_p,rougeL_r,rougeL_f1,fa_precision,fa_recall,fa_f_beta,beta,"
    "incorrect_hallucination_rate,empty_system,empty_relevant,"
    "mean_output_words,mean_output_sentences"
)


class TestEvaluate:
    def test_report_csv_header(self, evaluated):
        with open(evaluated["report"] / "report.csv", encoding="utf-8") as fh:
            assert fh.readline() == REPORT_HEADER + "\n"

    def test_report_rouge_matches_direct_library_calls(self, workspace, evaluated):
        # Each ROUGE cell is the mean of rouge_n/rouge_l over the section's
        # instances in encounter-id order; the CSV holds repr floats, so exactly.
        references = _references(workspace / "data", "test")
        summaries = {
            (r["encounter_id"], r["section"], r["system"]): r["text"]
            for name in ("sys_oracle.jsonl", "sys_rule.jsonl")
            for r in read_jsonl(evaluated["root"] / name)
        }
        with open(evaluated["report"] / "report.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 14
        for row in rows:
            section, system = row["section"], row["system"]
            scores = []
            for enc in sorted(enc for enc, sec in references if sec == section):
                ref = tokenize(references[(enc, section)])
                cand = tokenize(summaries.get((enc, section, system), ""))
                scores.append({
                    "rouge1": rouge_n(cand, ref, 1),
                    "rouge2": rouge_n(cand, ref, 2),
                    "rougeL": rouge_l(cand, ref),
                })
            assert int(row["instances"]) == len(scores)
            for metric in ("rouge1", "rouge2", "rougeL"):
                for column, field in (("p", "precision"), ("r", "recall"), ("f1", "f1")):
                    expected = fmean(getattr(s[metric], field) for s in scores)
                    assert float(row[f"{metric}_{column}"]) == expected, (section, system, metric)

    def test_row_cardinality(self, evaluated):
        with open(evaluated["report"] / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 14  # 7 sections x 2 systems
        assert {r["system"] for r in rows} == {"oracle_ext", "rule_based_ext"}

    def test_oracle_rouge_is_one(self, evaluated):
        with open(evaluated["report"] / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if row["system"] == "oracle_ext":
                assert float(row["rougeL_f1"]) == 1.0

    def test_table_and_csv_agree(self, evaluated):
        table = (evaluated["report"] / "report.txt").read_text().splitlines()
        with open(evaluated["report"] / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        body = [line for line in table[2:] if line.strip()]
        assert len(body) == len(rows)
        for line, row in zip(body, rows):
            cells = line.split()
            assert cells[0] == row["section"]
            assert cells[1] == row["system"]
            shown = cells[5].split("/")  # rouge-L column, percent with 1 decimal
            assert shown[2] == f"{100 * float(row['rougeL_f1']):04.1f}"

    def test_plot_data_columns(self, evaluated):
        with open(evaluated["report"] / "plot_data.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"section", "mean_output_words", "system", "metric", "value"}
        metrics = {r["metric"] for r in rows}
        assert metrics == {"rouge_l_f1", "incorrect_hallucination_rate"}
        # 7 sections x 2 systems x 2 metrics
        assert len(rows) == 28

    def test_missing_instances_scored_as_empty(self, workspace, evaluated, tmp_path):
        rows = read_jsonl(evaluated["root"] / "sys_oracle.jsonl")
        half = rows[: len(rows) // 2]
        partial = tmp_path / "sys_partial.jsonl"
        write_jsonl(partial, half)
        report = tmp_path / "rep"
        assert run("--quiet", "evaluate", "--dataset", workspace / "data",
                   "--systems", str(partial), "--split", "test", "--out", report) == 0
        with open(report / "report.csv") as fh:
            got = list(csv.DictReader(fh))
        missing_total = sum(int(r["empty_system"]) for r in got)
        assert missing_total >= len(rows) - len(half)

    def test_no_files_match_fatal(self, workspace, tmp_path):
        assert run("--quiet", "evaluate", "--dataset", workspace / "data",
                   "--systems", str(tmp_path / "none_*.jsonl"),
                   "--out", tmp_path / "r") == 1

    def test_annotations_backend(self, workspace, evaluated, tmp_path):
        # Every (encounter, section, role, system) key gets its own set, so a
        # key built with a wrong section, role or system changes some cell.
        dataset = workspace / "data"
        systems = ("oracle_ext", "rule_based_ext")
        rng = random.Random(8)
        vocab = ["htn", "cad", "fever", "copd", "afib", "chest pain"]

        def draw():
            return frozenset(rng.sample(vocab, rng.randint(0, 4)))

        instances = sorted(_references(dataset, "test"))
        sources = {enc: draw() for enc, _ in instances}
        roles = ("ref",) + tuple(f"sys:{system}" for system in systems)
        sets = {(enc, section, role): draw() for enc, section in instances for role in roles}
        ann_rows = [{"key": f"enc:{enc}:src", "entities": sorted(found)}
                    for enc, found in sources.items()]
        ann_rows += [{"key": f"enc:{enc}:{section}:{role}", "entities": sorted(found)}
                     for (enc, section, role), found in sets.items()]
        ann = tmp_path / "annotations.jsonl"
        write_jsonl(ann, ann_rows)
        report = tmp_path / "rep_ann"
        assert run("--quiet", "evaluate", "--dataset", dataset,
                   "--systems", str(evaluated["root"] / "sys_*.jsonl"),
                   "--split", "test", "--annotations", ann, "--out", report) == 0
        with open(report / "report.csv") as fh:
            rows = {(r["section"], r["system"]): r for r in csv.DictReader(fh)}
        assert len(rows) == 2 * len({section for _, section in instances})
        for (section, system), row in rows.items():
            scores = [
                score_sets(
                    sources[enc], sets[(enc, section, "ref")], sets[(enc, section, f"sys:{system}")]
                )
                for enc, sec in instances if sec == section
            ]
            for field in ("fa_precision", "fa_recall", "fa_f_beta",
                          "incorrect_hallucination_rate"):
                expected = fmean(getattr(s, field) for s in scores)
                assert float(row[field]) == pytest.approx(expected, abs=1e-12), (section, system)
            assert int(row["empty_system"]) == sum(s.empty_system for s in scores)
            assert int(row["empty_relevant"]) == sum(s.empty_relevant for s in scores)

    # A second line for a key used to replace the first without a word.
    def test_repeated_annotation_key_fatal(self, workspace, evaluated, tmp_path, caplog):
        [(enc, section), *_] = sorted(_references(workspace / "data", "test"))
        ann = tmp_path / "annotations.jsonl"
        write_jsonl(ann, [
            {"key": f"enc:{enc}:src", "entities": ["htn"]},
            {"key": f"enc:{enc}:{section}:ref", "entities": ["htn"]},
            {"key": f"enc:{enc}:src", "entities": ["fever"]},
        ])
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("evaluate", "--dataset", workspace / "data",
                       "--systems", str(evaluated["root"] / "sys_*.jsonl"), "--split", "test",
                       "--annotations", ann, "--out", tmp_path / "r") == 1
        assert f"annotations.jsonl:3: repeated key 'enc:{enc}:src'" in caplog.text
        assert not (tmp_path / "r").exists()

    # Keys that no evaluated set looks up used to be ignored without a word.
    def test_unused_annotation_keys_warned(self, workspace, evaluated, tmp_path, caplog):
        [(enc, section), *_] = sorted(_references(workspace / "data", "test"))
        used = [{"key": f"enc:{enc}:src", "entities": ["htn"]},
                {"key": f"enc:{enc}:{section}:ref", "entities": ["htn"]}]
        unused = [f"enc:{enc}:{section}:sys:misspelled", "enc:x:src", "enc:y:src", "enc:z:src"]
        reports = {}
        for name, rows in [("used", used), ("all", used + [
            {"key": key, "entities": ["fever"]} for key in unused
        ])]:
            ann = tmp_path / f"{name}.jsonl"
            write_jsonl(ann, rows)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="encsum"):
                assert run("evaluate", "--dataset", workspace / "data",
                           "--systems", str(evaluated["root"] / "sys_*.jsonl"), "--split", "test",
                           "--annotations", ann, "--out", tmp_path / name) == 0
            reports[name] = (tmp_path / name / "report.csv").read_bytes()
            warnings = [r.getMessage() for r in caplog.records if "annotation keys" in r.getMessage()]
            if name == "used":
                assert warnings == []
        assert warnings == [
            "4 of 6 annotation keys match no entity set of a test instance of the evaluated"
            f" sections; ignored: 'enc:{enc}:{section}:sys:misspelled', 'enc:x:src', 'enc:y:src', ..."
        ]
        assert reports["all"] == reports["used"]

    def test_mask_deid_flag(self, tmp_path):
        # with masking, two placeholders differing only in id compare equal
        notes = []
        for i, country in enumerate(("[ country 4952 ]", "[ country 11150 ]")):
            notes.append({
                "note_id": f"a{i}", "subject_id": f"s{i}", "encounter_id": f"e{i}",
                "chart_date": "2040-01-01T08:00:00", "category": "admission note",
                "text": f"social history:\n\nretired from {country} .\n",
            })
            notes.append({
                "note_id": f"d{i}", "subject_id": f"s{i}", "encounter_id": f"e{i}",
                "chart_date": "2040-01-02T08:00:00", "category": "discharge summary",
                "text": "social history:\n\nretired from [ country 4952 ] .\n",
            })
        notes.append({
            "note_id": "a2", "subject_id": "s2", "encounter_id": "e2",
            "chart_date": "2040-01-01T08:00:00", "category": "admission note",
            "text": "social history:\n\nworks locally .\n",
        })
        notes.append({
            "note_id": "d2", "subject_id": "s2", "encounter_id": "e2",
            "chart_date": "2040-01-02T08:00:00", "category": "discharge summary",
            "text": "social history:\n\nworks locally .\n",
        })
        src = tmp_path / "notes.jsonl"
        write_jsonl(src, notes)
        data = tmp_path / "data"
        assert run("--quiet", "build-dataset", "--notes", src, "--out", data,
                   "--ratios", "0.4,0.3,0.3", "--seed", "1") == 0
        for split in ("train", "validation", "test"):
            out = tmp_path / f"rule_{split}.jsonl"
            assert run("--quiet", "--mask-deid", "rule-baseline", "--dataset", data,
                       "--section", "social_history", "--split", split, "--out", out) == 0
            report = tmp_path / f"rep_{split}"
            assert run("--quiet", "--mask-deid", "evaluate", "--dataset", data,
                       "--systems", str(out), "--split", split,
                       "--section", "social_history", "--out", report) == 0
            with open(report / "report.csv") as fh:
                rows = list(csv.DictReader(fh))
            # masked placeholders are identical tokens, so ROUGE is perfect
            assert all(float(r["rougeL_f1"]) == 1.0 for r in rows)

    def test_custom_beta_flag(self, workspace, evaluated, tmp_path):
        report = tmp_path / "rep_beta"
        assert run("--quiet", "evaluate", "--dataset", workspace / "data",
                   "--systems", str(evaluated["root"] / "sys_rule.jsonl"),
                   "--split", "test", "--beta", "1.0", "--out", report) == 0
        with open(report / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["beta"] == "1.0" for row in rows)

    # beta * beta overflows above about 1.3e154; --beta 1e200 used to exit 0
    # with nan in fa_f_beta.
    def test_overflowing_beta_writes_no_nan(self, workspace, evaluated, tmp_path):
        report = tmp_path / "rep_beta"
        assert run("--quiet", "evaluate", "--dataset", workspace / "data",
                   "--systems", str(evaluated["root"] / "sys_*.jsonl"),
                   "--split", "test", "--beta", "1e200", "--out", report) == 0
        assert "nan" not in (report / "report.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("beta", ["nan", "inf", "-1", "0", "high"])
    def test_bad_beta_usage_error(self, workspace, evaluated, tmp_path, capsys, beta):
        with pytest.raises(SystemExit) as exc:
            run("--quiet", "evaluate", "--dataset", workspace / "data",
                "--systems", str(evaluated["root"] / "sys_rule.jsonl"),
                "--split", "test", "--beta", beta, "--out", tmp_path / "r")
        assert exc.value.code == 2
        assert "beta" in capsys.readouterr().err

    # The mark used to stay on the first term, which then never matched.
    def test_gazetteer_byte_order_mark_ignored(self, workspace, evaluated, tmp_path):
        oracle = evaluated["root"] / "sys_oracle.jsonl"
        term = tokenize(read_jsonl(oracle)[0]["text"])[0]
        for name, mark in (("plain", b""), ("marked", codecs.BOM_UTF8)):
            (tmp_path / f"{name}.txt").write_bytes(mark + f"{term}\n".encode())
            assert run("--quiet", "evaluate", "--dataset", workspace / "data",
                       "--systems", oracle, "--split", "test",
                       "--gazetteer", tmp_path / f"{name}.txt", "--out", tmp_path / name) == 0
        assert filecmp.cmp(tmp_path / "plain" / "report.csv", tmp_path / "marked" / "report.csv",
                           shallow=False)

    def test_gazetteer_and_annotations_usage_error(self, workspace, evaluated, tmp_path, capsys):
        gaz = tmp_path / "terms.txt"
        gaz.write_text("htn\n")
        ann = tmp_path / "annotations.jsonl"
        write_jsonl(ann, [])
        with pytest.raises(SystemExit) as exc:
            run("--quiet", "evaluate", "--dataset", workspace / "data",
                "--systems", str(evaluated["root"] / "sys_rule.jsonl"), "--split", "test",
                "--gazetteer", gaz, "--annotations", ann, "--out", tmp_path / "r")
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("where", ["same file", "second file"])
    def test_duplicate_summary_fatal(self, workspace, evaluated, tmp_path, caplog, where):
        rows = read_jsonl(evaluated["root"] / "sys_oracle.jsonl")
        altered = dict(rows[0], text=rows[0]["text"] + " extra words")
        systems = tmp_path / "systems"
        if where == "same file":
            write_jsonl(systems / "sys_a.jsonl", rows + [altered])
        else:
            write_jsonl(systems / "sys_a.jsonl", rows)
            write_jsonl(systems / "sys_b.jsonl", [altered])
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("evaluate", "--dataset", workspace / "data",
                       "--systems", str(systems / "sys_*.jsonl"), "--split", "test",
                       "--out", tmp_path / "r") == 1
        message = caplog.text
        assert "duplicate" in message and rows[0]["encounter_id"] in message
        assert ("sys_a.jsonl" if where == "same file" else "sys_b.jsonl") in message

    @pytest.mark.parametrize("edit, message", [
        (lambda r: {**r, "text": 5}, "field 'text' missing or not of type str"),
        (lambda r: [1, 2], "a JSON list, not an object"),
    ], ids=["int text", "list"])
    def test_malformed_summary_record_fatal(
        self, workspace, evaluated, tmp_path, caplog, edit, message
    ):
        systems = tmp_path / "sys_oracle.jsonl"
        shutil.copy(evaluated["root"] / "sys_oracle.jsonl", systems)
        _edit_first_record(systems, edit)
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("evaluate", "--dataset", workspace / "data", "--systems", systems,
                       "--split", "test", "--out", tmp_path / "r") == 1
        assert f"sys_oracle.jsonl:1: not a system summary record: {message}" in caplog.text

    def test_unmatched_summaries_counted(self, workspace, evaluated, tmp_path, caplog):
        rows = read_jsonl(evaluated["root"] / "sys_oracle.jsonl")
        (enc, section), _ = min(_references(workspace / "data", "train").items())
        strays = [
            {**rows[0], "encounter_id": enc, "section": section},  # an instance of another split
            {**rows[0], "encounter_id": "enc-nowhere"},
        ]
        systems = tmp_path / "sys_oracle.jsonl"
        write_jsonl(systems, rows + strays)
        with caplog.at_level(logging.WARNING, logger="encsum"):
            assert run("evaluate", "--dataset", workspace / "data", "--systems", systems,
                       "--split", "test", "--out", tmp_path / "r") == 0
        warnings = [r.getMessage() for r in caplog.records if "summaries match" in r.getMessage()]
        assert warnings == [
            f"system oracle_ext: 2 of {len(rows) + 2} summaries match no test instance "
            "of the evaluated sections; ignored"
        ]

    def test_system_matching_no_instance_fatal(self, workspace, evaluated, tmp_path, caplog):
        # Test-split summaries scored on train used to exit 0 with every cell 0.
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("evaluate", "--dataset", workspace / "data",
                       "--systems", str(evaluated["root"] / "sys_*.jsonl"),
                       "--split", "train", "--out", tmp_path / "r") == 1
        assert (
            "no summary matches a train instance of the evaluated sections, for system "
            "'oracle_ext', 'rule_based_ext'"
        ) in caplog.text
        assert not (tmp_path / "r").exists()

    def test_gazetteer_source_matched_once_per_encounter(
        self, workspace, evaluated, tmp_path, monkeypatch
    ):
        calls = []
        match = evaluate.extract_entities_gazetteer

        def counting(text, gaz):
            calls.append(text)
            return match(text, gaz)

        monkeypatch.setattr(evaluate, "extract_entities_gazetteer", counting)
        assert run("--quiet", "evaluate", "--dataset", workspace / "data",
                   "--systems", str(evaluated["root"] / "sys_*.jsonl"), "--split", "test",
                   "--out", tmp_path / "r") == 0
        encounters = {
            row["encounter_id"]: row
            for row in read_jsonl(workspace / "data" / "encounters__test.jsonl")
        }
        prior_texts = {
            note["text"] for row in encounters.values() for note in row["prior_notes"]
        }
        evaluated_ids = {enc for enc, _ in _references(workspace / "data", "test")}
        expected = Counter(
            note["text"] for enc in evaluated_ids for note in encounters[enc]["prior_notes"]
        )
        assert expected and Counter(t for t in calls if t in prior_texts) == expected
        # References and summaries are matched on the tokens ROUGE scored,
        # without tokenizing them again.
        assert Counter(calls) == expected


class TestEntryPoints:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_successive_calls_parse_independently(self, scored_pipeline, tmp_path, capsys):
        # The parser is built once per process; no call may see another's argv.
        assert cli._build_parser() is cli._build_parser()
        parse = cli._build_parser().parse_args
        assert parse(["--quiet", "chunk", "--dataset", "d", "--out", "o"]).quiet is True
        assert parse(["chunk", "--dataset", "d", "--out", "o"]).quiet is False
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(
            json.dumps({"chosen_threshold": 0.5, "section": "past_medical_history"})
        )
        cutoff = ["--quiet", "cutoff", "--merged", scored_pipeline["merged"],
                  "--section", "past_medical_history"]
        assert run(*cutoff, "--threshold", "0.5", "--out", tmp_path / "a.jsonl") == 0
        assert run(*cutoff, "--sweep", sweep_file, "--out", tmp_path / "b.jsonl") == 0
        assert filecmp.cmp(tmp_path / "a.jsonl", tmp_path / "b.jsonl", shallow=False)
        for extra in (["--threshold", "0.5", "--sweep", sweep_file], []):
            with pytest.raises(SystemExit) as exc:
                run(*cutoff, *extra, "--out", tmp_path / "c.jsonl")
            assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err
        assert run(*cutoff, "--threshold", "0.95", "--out", tmp_path / "c.jsonl") == 0
        assert not filecmp.cmp(tmp_path / "a.jsonl", tmp_path / "c.jsonl", shallow=False)

    # basicConfig does nothing after its first call in a process, so the first
    # call's --quiet used to govern every later call.
    @pytest.mark.parametrize("quiet_first", [False, True])
    def test_quiet_governs_its_call_only(self, tmp_path, quiet_first):
        flags = [["--quiet"], []] if quiet_first else [[], ["--quiet"]]
        argvs = [
            [*flag, "synth-corpus", "--out", str(tmp_path / f"n{i}.jsonl"), "--encounters", "2"]
            for i, flag in enumerate(flags)
        ]
        script = (
            "import json, sys\n"
            "from encsum.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0\n"
            "    print('-- call done', file=sys.stderr, flush=True)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        *logs, tail = proc.stderr.split("-- call done\n")
        assert tail == ""
        assert ["INFO encsum: wrote" in log for log in logs] == [not flag for flag in flags]

    def test_quiet_leaves_other_handlers(self, tmp_path, caplog):
        root, package = logging.getLogger(), logging.getLogger("encsum")
        before = (list(root.handlers), list(package.handlers), package.level)
        with caplog.at_level(logging.INFO):
            assert run("--quiet", "synth-corpus", "--out", tmp_path / "n.jsonl",
                       "--encounters", "2") == 0
        assert "wrote" in caplog.text
        assert (list(root.handlers), list(package.handlers), package.level) == before

    def test_command_function_looked_up_per_call(self, monkeypatch, tmp_path):
        # A wrapper bound to a command function's name after the parser was
        # built is the one that runs.
        cli._build_parser()
        seen = []
        monkeypatch.setattr(cli, "_cmd_synth_corpus", lambda args: seen.append(args.out) or 0)
        assert run("--quiet", "synth-corpus", "--out", tmp_path / "n.jsonl") == 0
        assert seen == [str(tmp_path / "n.jsonl")] and not (tmp_path / "n.jsonl").exists()

    # "1.5,-0.5,0" used to exit 0 with every subject in train.
    @pytest.mark.parametrize("ratios", [
        "1.5,-0.5,0", "-0.1,0.6,0.5", "0.5,0.2,0.2", "0.5,0.5", "nan,0.5,0.5", "inf,0,0", "a,b,c",
    ])
    def test_bad_ratios_usage_error(self, workspace, tmp_path, capsys, ratios):
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as exc:
            run("--quiet", "build-dataset", "--notes", workspace / "notes.jsonl",
                "--out", out, "--ratios", ratios)
        assert exc.value.code == 2
        assert "--ratios" in capsys.readouterr().err
        assert not out.exists()

    # --encounters -3 used to exit 0 with an empty notes file, and
    # --max-tokens 0 to exit 1 after the whole dataset had loaded.
    @pytest.mark.parametrize("option, argv", [
        ("--encounters", ["synth-corpus", "--out", "{out}"]),
        ("--max-tokens", ["chunk", "--dataset", "{data}", "--out", "{out}"]),
    ])
    @pytest.mark.parametrize("value", ["0", "-3", "1.5", "many"])
    def test_non_positive_count_usage_error(
        self, workspace, tmp_path, capsys, option, argv, value
    ):
        out = tmp_path / "out.jsonl"
        argv = [a.format(out=out, data=workspace / "data") for a in argv]
        with pytest.raises(SystemExit) as exc:
            run("--quiet", *argv, option, value)
        assert exc.value.code == 2
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_one_is_a_valid_count(self, workspace, tmp_path):
        out = tmp_path / "seg.jsonl"
        assert run("--quiet", "chunk", "--dataset", workspace / "data", "--split", "train",
                   "--max-tokens", "1", "--out", out) == 0
        assert out.stat().st_size > 0

    def test_console_invocation(self, tmp_path):
        out = tmp_path / "n.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "encsum.cli", "synth-corpus", "--out", str(out),
             "--encounters", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.is_file()
