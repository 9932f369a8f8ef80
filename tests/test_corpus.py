import json
import logging
from dataclasses import asdict

import pytest

from encsum.corpus import (
    assemble_encounters,
    corpus_stats,
    ingest_notes,
    source_sentences,
    split_by_subject,
)
from tests.conftest import make_note


def write_notes(path, notes):
    with open(path, "w", encoding="utf-8") as fh:
        for note in notes:
            fh.write(json.dumps(note.to_record()) + "\n")


class TestIngest:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        write_notes(path, [make_note(note_id=f"n{i}") for i in range(3)])
        result = ingest_notes(path)
        assert len(result.notes) == 3
        assert result.skipped == 0

    def test_truncated_line_skipped(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        good = json.dumps(make_note().to_record())
        good2 = json.dumps(make_note(note_id="n2").to_record())
        path.write_text(good + "\n" + good2[: len(good2) // 2] + "\n" + good2 + "\n")
        result = ingest_notes(path)
        assert len(result.notes) == 2
        assert result.skipped_lines == [2]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text("")
        result = ingest_notes(path)
        assert result.notes == [] and result.skipped == 0

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_notes(tmp_path / "nope.jsonl")

    def test_bad_chart_date_skipped(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        write_notes(path, [make_note(chart_date="not a date")])
        result = ingest_notes(path)
        assert result.notes == [] and result.skipped == 1

    def test_note_of_another_subject_skipped(self, tmp_path, caplog):
        # It used to join the encounter, whose record a dataset reader rejects.
        path = tmp_path / "notes.jsonl"
        write_notes(path, [make_note(), make_note(note_id="n2", subject_id="s2")])
        with caplog.at_level(logging.WARNING):
            result = ingest_notes(path)
        assert [n.note_id for n in result.notes] == ["n1"] and result.skipped_lines == [2]
        assert (
            "notes.jsonl:2: skipping note line: subject_id 's2' is not 's1', the subject of"
            " encounter 'e1' on an earlier line"
        ) in caplog.text

    def test_duplicate_note_id_skipped(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        write_notes(path, [make_note(), make_note()])
        result = ingest_notes(path)
        assert len(result.notes) == 1 and result.skipped == 1

    @pytest.mark.parametrize("chart_date", [
        "2040-01-02",
        "2040-01-02T12:00",
        "2040-01-02 12:00",
        "2040-01-02T12:00:59",
        "2040-01-02 12:00:59",
        "2040-01-02T12:00:59.123456",
    ])
    def test_chart_date_accepted(self, tmp_path, chart_date):
        path = tmp_path / "notes.jsonl"
        write_notes(path, [make_note(chart_date=chart_date)])
        assert ingest_notes(path).skipped == 0

    # Whatever datetime.fromisoformat took on the running Python used to be
    # accepted, so these depended on the interpreter version.
    @pytest.mark.parametrize("chart_date", [
        "20400102T12:00:00",
        "2040-01-02T12",
        "2040-01-02T12:00:00Z",
        "2040-01-02T12:00:00+01:00",
        "2040-01-02T12:00:00.123",
        "2040-01-02t12:00:00",
        "2040-01-02  12:00:00",
        "2040-W01-1",
        "2040-1-2",
        "2040-02-30",
        "2040-01-02T24:00:00",
        "2040-01-02T12:00:00\n",
        "٢٠٤٠-01-02",
    ])
    def test_chart_date_rejected(self, tmp_path, caplog, chart_date):
        path = tmp_path / "notes.jsonl"
        write_notes(path, [make_note(chart_date=chart_date)])
        with caplog.at_level(logging.WARNING, logger="encsum"):
            result = ingest_notes(path)
        assert result.notes == [] and result.skipped_lines == [1]
        assert f"notes.jsonl:1: skipping note line: bad chart_date {chart_date!r}" in caplog.text

    def test_skip_warning_names_the_reason(self, tmp_path, caplog):
        path = tmp_path / "notes.jsonl"
        write_notes(path, [make_note(), make_note()])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("[1, 2]\n")
        with caplog.at_level(logging.WARNING, logger="encsum"):
            assert ingest_notes(path).skipped_lines == [2, 3]
        assert "notes.jsonl:2: skipping note line: repeated note_id 'n1'" in caplog.text
        assert "notes.jsonl:3: skipping note line: not a note record" in caplog.text


def _encounter_notes():
    return [
        make_note(note_id="adm", chart_date="2040-01-01T08:00:00", category="admission note"),
        make_note(note_id="prog", chart_date="2040-01-02T08:00:00", category="nursing"),
        make_note(note_id="ds", chart_date="2040-01-03T08:00:00", category="discharge summary"),
    ]


class TestAssemble:
    def test_minimal_encounter(self):
        notes = [
            make_note(note_id="adm", category="admission note"),
            make_note(note_id="ds", chart_date="2040-01-02T08:00:00",
                      category="discharge summary"),
        ]
        encounters, diag = assemble_encounters(notes)
        assert len(encounters) == 1
        assert [n.note_id for n in encounters[0].prior_notes] == ["adm"]
        assert encounters[0].discharge_summary.note_id == "ds"
        assert asdict(diag) == {
            "no_discharge": 0, "multiple_discharge": 0,
            "missing_admission": 0, "notes_after_discharge": 0,
        }

    def test_shuffled_dates_sorted(self, rng):
        notes = _encounter_notes()
        extra = [
            make_note(note_id=f"x{i}", chart_date=f"2040-01-01T{10 + i:02d}:00:00",
                      category="nursing")
            for i in range(6)
        ]
        pool = notes[:2] + extra
        rng.shuffle(pool)
        encounters, _ = assemble_encounters(pool + [notes[2]])
        got = [(n.chart_date, n.note_id) for n in encounters[0].prior_notes]
        assert got == sorted(got)

    def test_priors_ordered_by_time_not_string(self):
        # " " sorts before "T", so string order put 09:00 before 08:00.
        notes = [
            make_note(note_id="a", chart_date="2040-01-01 09:00:00"),
            make_note(note_id="b", chart_date="2040-01-01T08:00:00"),
            make_note(note_id="c", chart_date="2040-01-01T08:00"),
            make_note(note_id="ds", chart_date="2040-01-03", category="discharge summary"),
        ]
        encounters, _ = assemble_encounters(notes)
        assert [n.note_id for n in encounters[0].prior_notes] == ["b", "c", "a"]

    def test_after_discharge_compared_by_time_not_string(self):
        notes = [
            make_note(note_id="adm", chart_date="2040-01-02T08:00:00"),
            make_note(note_id="same", chart_date="2040-01-02T12:00:00.000000"),
            make_note(note_id="late", chart_date="2040-01-02 12:00:01"),
            make_note(note_id="ds", chart_date="2040-01-02 12:00", category="discharge summary"),
        ]
        encounters, diag = assemble_encounters(notes)
        assert [n.note_id for n in encounters[0].prior_notes] == ["adm", "same"]
        assert diag.notes_after_discharge == 1

    def test_two_discharge_summaries_dropped(self):
        notes = _encounter_notes() + [
            make_note(note_id="ds2", chart_date="2040-01-04T08:00:00",
                      category="discharge summary")
        ]
        encounters, diag = assemble_encounters(notes)
        assert encounters == [] and diag.multiple_discharge == 1

    def test_no_discharge_dropped(self):
        encounters, diag = assemble_encounters([make_note(category="nursing")])
        assert encounters == [] and diag.no_discharge == 1

    def test_note_after_discharge_excluded(self):
        notes = _encounter_notes() + [
            make_note(note_id="late", chart_date="2040-01-09T08:00:00", category="echo")
        ]
        encounters, diag = assemble_encounters(notes)
        assert [n.note_id for n in encounters[0].prior_notes] == ["adm", "prog"]
        assert diag.notes_after_discharge == 1

    def test_require_admission(self):
        notes = [
            make_note(note_id="prog", category="nursing"),
            make_note(note_id="ds", chart_date="2040-01-02T08:00:00",
                      category="discharge summary"),
        ]
        with_req, diag = assemble_encounters(notes, require_admission_note=True)
        assert with_req == [] and diag.missing_admission == 1
        without_req, _ = assemble_encounters(notes)
        assert len(without_req) == 1

    def test_permutation_invariant(self, rng):
        notes = _encounter_notes() + [
            make_note(note_id=f"e2-{i}", encounter_id="e2", subject_id="s2",
                      chart_date=f"2040-02-0{i + 1}T08:00:00",
                      category="discharge summary" if i == 2 else "nursing")
            for i in range(3)
        ]
        baseline, _ = assemble_encounters(notes)
        for _ in range(5):
            shuffled = notes[:]
            rng.shuffle(shuffled)
            encounters, _ = assemble_encounters(shuffled)
            assert encounters == baseline

    def test_empty_input_fatal(self):
        with pytest.raises(ValueError):
            assemble_encounters([])


def _encounters_for_subjects(n_subjects, encounters_per_subject=1):
    encounters = []
    for s in range(n_subjects):
        for e in range(encounters_per_subject):
            notes = [
                make_note(note_id=f"n-{s}-{e}-a", subject_id=f"s{s}",
                          encounter_id=f"e{s}-{e}", category="admission note"),
                make_note(note_id=f"n-{s}-{e}-d", subject_id=f"s{s}",
                          encounter_id=f"e{s}-{e}", chart_date="2040-01-02T08:00:00",
                          category="discharge summary"),
            ]
            got, _ = assemble_encounters(notes)
            encounters.extend(got)
    return encounters


def _subjects(splits: dict[str, str], split: str) -> set[str]:
    return {subject for subject, sp in splits.items() if sp == split}


class TestSplit:
    def test_100_subjects_80_10_10(self):
        splits = split_by_subject(_encounters_for_subjects(100), (0.8, 0.1, 0.1), seed=1)
        counts = {
            split: len(_subjects(splits, split))
            for split in ("train", "validation", "test")
        }
        assert counts == {"train": 80, "validation": 10, "test": 10}

    def test_deterministic(self):
        encounters = _encounters_for_subjects(10)
        a = split_by_subject(encounters, seed=42)
        b = split_by_subject(encounters, seed=42)
        assert a == b

    def test_subject_encounters_stay_together(self):
        encounters = _encounters_for_subjects(5, encounters_per_subject=3)
        splits = split_by_subject(encounters, seed=0)
        for encounter in encounters:
            assert splits[encounter.subject_id] in ("train", "validation", "test")
        assert len(splits) == 5

    def test_partition_no_leakage(self):
        encounters = _encounters_for_subjects(23)
        splits = split_by_subject(encounters, seed=9)
        subjects = {e.subject_id for e in encounters}
        split_sets = [_subjects(splits, s) for s in ("train", "validation", "test")]
        assert set.union(*split_sets) == subjects
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (split_sets[i] & split_sets[j])

    def test_realized_ratios_close(self):
        encounters = _encounters_for_subjects(37)
        splits = split_by_subject(encounters, (0.8, 0.1, 0.1), seed=5)
        n = 37
        for split, ratio in zip(("train", "validation", "test"), (0.8, 0.1, 0.1)):
            assert abs(len(_subjects(splits, split)) - ratio * n) <= 1

    def test_too_few_subjects_fatal(self):
        with pytest.raises(ValueError):
            split_by_subject(_encounters_for_subjects(2), seed=0)

    def test_bad_ratios_fatal(self):
        with pytest.raises(ValueError):
            split_by_subject(_encounters_for_subjects(10), (0.5, 0.2, 0.2), seed=0)

    # (1.5, -0.5, 0) sums to 1 and used to put every subject in train.
    @pytest.mark.parametrize("ratios", [
        (1.5, -0.5, 0.0), (-0.1, 0.6, 0.5), (0.5, 0.5), (0.4, 0.3, 0.2, 0.1),
        (float("nan"), 0.5, 0.5), (float("inf"), 0.0, 0.0),
    ])
    def test_ratio_out_of_range_fatal(self, ratios):
        with pytest.raises(ValueError, match="ratios"):
            split_by_subject(_encounters_for_subjects(10), ratios, seed=0)

    def test_edge_ratios_accepted(self):
        splits = split_by_subject(_encounters_for_subjects(10), (0.0, 1.0, 0.0), seed=0)
        assert len(_subjects(splits, "validation")) == 10


def _records(**texts_by_split) -> dict[str, list[dict]]:
    """{split: section records} holding the given reference texts."""
    return {split: [{"text": t} for t in texts] for split, texts in texts_by_split.items()}


class TestStats:
    def test_mean_words(self):
        stats = corpus_stats({"cc": _records(train=["a b c d."], test=["a b c d e f."])})
        # tokenizer counts the trailing period as a token: 5 and 7 tokens.
        assert stats["per_section"]["cc"]["mean_words"] == pytest.approx(6.0)

    def test_hand_average_without_punct(self):
        stats = corpus_stats({"cc": _records(train=["a b c d"], test=["a b c d e f"])})
        assert stats["per_section"]["cc"]["mean_words"] == pytest.approx(5.0)

    def test_single_sentence(self):
        stats = corpus_stats({"sh": _records(train=["lives alone"])})
        assert stats["per_section"]["sh"]["mean_sentences"] == pytest.approx(1.0)

    def test_counts_per_split(self):
        stats = corpus_stats({"cc": _records(train=["a.", "b."], validation=[], test=["c."])})
        assert stats["per_section"]["cc"]["counts"] == {"train": 2, "validation": 0, "test": 1}

    def test_empty_group_flagged(self):
        stats = corpus_stats({"fh": _records(train=[], validation=[], test=[])})
        assert stats["per_section"]["fh"] == {
            "counts": {"train": 0, "validation": 0, "test": 0},
            "mean_words": None,
            "mean_sentences": None,
        }

    def test_encounter_means(self):
        encounters = _encounters_for_subjects(4)
        stats = corpus_stats({}, encounters)
        assert stats["mean_documents"] == pytest.approx(1.0)
        assert stats["mean_source_words"] == pytest.approx(2.0)  # "hello." -> 2 tokens

    def test_no_encounters_undefined(self):
        stats = corpus_stats({})
        assert stats["mean_documents"] is None and stats["mean_source_words"] is None


class TestSourceSentences:
    def test_keys_follow_note_order(self):
        notes = [
            make_note(note_id="a", chart_date="2040-01-01T08:00:00",
                      category="admission note", text="one. two."),
            make_note(note_id="b", chart_date="2040-01-02T08:00:00",
                      category="echo", text="three."),
            make_note(note_id="ds", chart_date="2040-01-03T08:00:00",
                      category="discharge summary", text="summary."),
        ]
        encounters, _ = assemble_encounters(notes)
        sents = source_sentences(encounters[0])
        assert [s.key for s in sents] == [(0, 0), (0, 1), (1, 0)]
        assert [s.raw_text for s in sents] == ["one.", "two.", "three."]
