import csv
import filecmp
import json
import logging
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from encsum import cli, evaluate, labeling
from encsum.cli import main
from encsum.jsonl import read_jsonl, write_jsonl
from encsum.rouge import rouge_l
from encsum.sections import SectionName
from encsum.textproc import tokenize


# Scores that merge-scores, sweep and cutoff must reject.
BAD_SCORES = ["high", True, None, float("nan"), float("inf"), float("-inf")]


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
        assert (dataset / "encounters.jsonl").is_file()
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
        encounters = data / "encounters.jsonl"
        lines = encounters.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[0] = lines[0][: len(lines[0]) // 2] + "\n"
        encounters.write_text("".join(lines), encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("oracle", "--dataset", data, "--split", "train",
                       "--out", tmp_path / "o.jsonl") == 1
        assert "encounters.jsonl:1" in caplog.text

    @pytest.mark.parametrize("edit, message", [
        (lambda r: [1, 2], "a JSON list"),
        (lambda r: {k: v for k, v in r.items() if k != "subject_id"}, "field 'subject_id'"),
        (lambda r: {**r, "encounter_id": 7}, "field 'encounter_id'"),
        (lambda r: {**r, "prior_notes": [{**r["prior_notes"][0], "text": 7}]},
         "prior_notes[0]: field 'text'"),
        (lambda r: {**r, "discharge_summary": [r["discharge_summary"]]},
         "field 'discharge_summary'"),
    ], ids=["list", "no subject_id", "int encounter_id", "int note text", "list summary"])
    def test_malformed_encounter_record_fatal(self, workspace, tmp_path, caplog, edit, message):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        _edit_first_record(data / "encounters.jsonl", edit)
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("oracle", "--dataset", data, "--split", "train",
                       "--out", tmp_path / "o.jsonl") == 1
        assert f"encounters.jsonl:1: not an encounter record: {message}" in caplog.text

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

    @pytest.mark.parametrize("edit, message", [
        (lambda r: [1], "a JSON list"),
        (lambda r: {"split": r["split"]}, "field 'subject_id'"),
        (lambda r: {**r, "split": "tran"}, "unknown split 'tran'"),
    ], ids=["list", "no subject_id", "unknown split"])
    def test_malformed_split_record_fatal(self, workspace, tmp_path, caplog, edit, message):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        _edit_first_record(data / "splits.jsonl", edit)
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("chunk", "--dataset", data, "--split", "train",
                       "--out", tmp_path / "s.jsonl") == 1
        assert f"splits.jsonl:1: not a split record: {message}" in caplog.text

    def test_encounter_without_split_record_fatal(self, workspace, tmp_path, caplog):
        # chunk used to drop the subject's encounters without a word.
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        [first, *rest] = read_jsonl(data / "splits.jsonl")
        write_jsonl(data / "splits.jsonl", rest)
        encounter = min(
            r["encounter_id"] for r in read_jsonl(data / "encounters.jsonl")
            if r["subject_id"] == first["subject_id"]
        )
        out = tmp_path / "s.jsonl"
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("chunk", "--dataset", data, "--split", "train", "--out", out) == 1
        expected = (
            f"splits.jsonl: no split record for subject {first['subject_id']!r} "
            f"of encounter {encounter!r}"
        )
        assert expected in caplog.text
        assert not out.exists()

    def test_repeated_encounter_id_fatal(self, workspace, tmp_path, caplog):
        # The later record used to replace the earlier one without a word.
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        encounters = data / "encounters.jsonl"
        lines = encounters.read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])
        repeat = json.dumps({**first, "prior_notes": []}) + "\n"
        encounters.write_text("".join(lines) + repeat, encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run("rule-baseline", "--dataset", data, "--split", "train",
                       "--out", tmp_path / "r.jsonl") == 1
        expected = (
            f"encounters.jsonl:{len(lines) + 1}: repeated encounter_id {first['encounter_id']!r}"
        )
        assert expected in caplog.text

    # oracle and rule-baseline used to skip such an instance with a warning,
    # and evaluate raised a bare KeyError.
    @pytest.mark.parametrize("command", ["oracle", "rule-baseline", "evaluate"])
    def test_instance_without_encounter_fatal(self, workspace, tmp_path, caplog, command):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        [instance, *_] = read_jsonl(data / "sections" / "chief_complaint__train.jsonl")
        encounters = data / "encounters.jsonl"
        kept = [r for r in read_jsonl(encounters) if r["encounter_id"] != instance["encounter_id"]]
        write_jsonl(encounters, kept)
        argv = [command, "--dataset", data, "--split", "train", "--section", "chief_complaint"]
        if command == "evaluate":
            systems = tmp_path / "sys_x.jsonl"
            write_jsonl(systems, [{"encounter_id": instance["encounter_id"],
                                   "section": "chief_complaint", "system": "x", "text": "x"}])
            argv += ["--systems", systems, "--out", tmp_path / "report"]
        else:
            argv += ["--out", tmp_path / "out.jsonl"]
        with caplog.at_level(logging.ERROR, logger="encsum"):
            assert run(*argv) == 1
        expected = (
            f"chief_complaint__train.jsonl: no encounter record for {instance['encounter_id']!r}"
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


class TestPipelineCommands:
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
         "not a segment record: sentences[0]: field 'text'"),
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
            expected = "scores.jsonl: score row for segment 'no-such-encounter/0', which "
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
    # logged only 'chosen_threshold', and NaN gave all-empty summaries.
    @pytest.mark.parametrize("content, message", [
        ("[1]\n", "not a sweep-result record: a JSON list"),
        ('{"chosen_threshold": "high"}\n',
         "'chosen_threshold' must be a finite number, got 'high'"),
        ('{"chosen_threshold": NaN}\n', "'chosen_threshold' must be a finite number, got nan"),
        ('{"thresholds": [0.5]}\n', "'chosen_threshold' must be a finite number, got None"),
        ("{\n", "Expecting"),
    ], ids=["list", "string", "nan", "missing", "not json"])
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


class TestEvaluate:
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
        dataset = workspace / "data"
        references = _references(dataset, "test")
        ann_rows = []
        seen = set()
        for (enc, section), _ in references.items():
            if enc not in seen:
                seen.add(enc)
                ann_rows.append({"key": f"enc:{enc}:src", "entities": ["htn", "fever"]})
            ann_rows.append({"key": f"enc:{enc}:{section}:ref", "entities": ["htn"]})
            ann_rows.append(
                {"key": f"enc:{enc}:{section}:sys:oracle_ext", "entities": ["htn", "fever"]}
            )
        ann = tmp_path / "annotations.jsonl"
        write_jsonl(ann, ann_rows)
        report = tmp_path / "rep_ann"
        assert run("--quiet", "evaluate", "--dataset", dataset,
                   "--systems", str(evaluated["root"] / "sys_oracle.jsonl"),
                   "--split", "test", "--annotations", ann, "--out", report) == 0
        with open(report / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            # C=1 (htn), |System|=2, B=0 -> P=0.5, R=1
            assert float(row["fa_precision"]) == 0.5
            assert float(row["fa_recall"]) == 1.0
            # fever is in source, so nothing is an incorrect hallucination
            assert float(row["incorrect_hallucination_rate"]) == 0.0

    def test_report_rouge_matches_direct_library_calls(self, workspace, evaluated):
        from statistics import fmean

        with open(evaluated["report"] / "report.csv") as fh:
            rows = {(r["section"], r["system"]): r for r in csv.DictReader(fh)}
        summaries = {
            (r["encounter_id"], r["section"]): r["text"]
            for r in read_jsonl(evaluated["root"] / "sys_rule.jsonl")
        }
        references = _references(workspace / "data", "test")
        section = "history_of_present_illness"
        instances = sorted(
            enc for (enc, sec) in references if sec == section
        )
        recomputed = fmean(
            rouge_l(
                tokenize(summaries.get((enc, section), "")),
                tokenize(references[(enc, section)]),
            ).f1
            for enc in instances
        )
        reported = float(rows[(section, "rule_based_ext")]["rougeL_f1"])
        assert reported == pytest.approx(recomputed, abs=1e-12)

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

    @pytest.mark.parametrize("beta", ["nan", "inf", "-1", "0", "high"])
    def test_bad_beta_usage_error(self, workspace, evaluated, tmp_path, capsys, beta):
        with pytest.raises(SystemExit) as exc:
            run("--quiet", "evaluate", "--dataset", workspace / "data",
                "--systems", str(evaluated["root"] / "sys_rule.jsonl"),
                "--split", "test", "--beta", beta, "--out", tmp_path / "r")
        assert exc.value.code == 2
        assert "beta" in capsys.readouterr().err

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

        def counting(text, gaz, origin="system"):
            if origin == "source":
                calls.append(text)
            return match(text, gaz, origin)

        monkeypatch.setattr(evaluate, "extract_entities_gazetteer", counting)
        assert run("--quiet", "evaluate", "--dataset", workspace / "data",
                   "--systems", str(evaluated["root"] / "sys_*.jsonl"), "--split", "test",
                   "--out", tmp_path / "r") == 0
        encounters = {
            row["encounter_id"]: row for row in read_jsonl(workspace / "data" / "encounters.jsonl")
        }
        evaluated_ids = {enc for enc, _ in _references(workspace / "data", "test")}
        expected = Counter(
            note["text"] for enc in evaluated_ids for note in encounters[enc]["prior_notes"]
        )
        assert expected and Counter(calls) == expected


class TestEntryPoints:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_console_invocation(self, tmp_path):
        out = tmp_path / "n.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "encsum.cli", "synth-corpus", "--out", str(out),
             "--encounters", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.is_file()
