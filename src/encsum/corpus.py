"""Corpus data model: note ingestion, encounter assembly, and subject-level splits.

An encounter is one hospital admission: the prior clinical notes in chart-date
order plus the discharge summary written at the end. Splits are assigned per
subject so that no patient leaks across train/validation/test.
"""

from __future__ import annotations

import logging
import math
import random
import re
from dataclasses import dataclass
from datetime import datetime
from operator import itemgetter
from pathlib import Path
from statistics import fmean
from typing import Iterable, Mapping, Sequence

from .jsonl import iter_jsonl
from .textproc import Sentence, count_sentences, split_sentences, tokenize

logger = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "validation", "test")

NOTE_FIELDS = ("note_id", "subject_id", "encounter_id", "chart_date", "category", "text")

# Note categories, compared case-insensitively after stripping whitespace.
ADMISSION_CATEGORIES = frozenset({"admission", "admission note"})
DISCHARGE_CATEGORIES = frozenset({"discharge summary"})


@dataclass(frozen=True)
class ClinicalNote:
    note_id: str
    subject_id: str
    encounter_id: str
    chart_date: str
    category: str
    text: str

    def to_record(self) -> dict:
        return {name: getattr(self, name) for name in NOTE_FIELDS}


@dataclass(frozen=True)
class Encounter:
    subject_id: str
    encounter_id: str
    prior_notes: tuple[ClinicalNote, ...]
    discharge_summary: ClinicalNote

    def to_record(self) -> dict:
        return {
            "subject_id": self.subject_id,
            "encounter_id": self.encounter_id,
            "prior_notes": [n.to_record() for n in self.prior_notes],
            "discharge_summary": self.discharge_summary.to_record(),
        }

    @staticmethod
    def from_record(record) -> "Encounter":
        """Inverse of ``to_record``; ValueError when ``record`` is not an encounter record."""
        check_fields(record, "an encounter", _ENCOUNTER_FIELDS)
        for i, note in enumerate(record["prior_notes"]):
            _check_encounter_note(record, note, f"prior_notes[{i}]")
        _check_encounter_note(record, record["discharge_summary"], "discharge_summary")
        return Encounter(
            subject_id=record["subject_id"],
            encounter_id=record["encounter_id"],
            prior_notes=tuple(_note(n) for n in record["prior_notes"]),
            discharge_summary=_note(record["discharge_summary"]),
        )


def _check_encounter_note(record: dict, note, where: str) -> None:
    """A note of an encounter record must be a note record of that encounter
    and subject, with a ``chart_date`` that ``chart_time`` accepts."""
    check_fields(note, "an encounter", _NOTE_TYPES, where)
    for name in ("encounter_id", "subject_id"):
        if note[name] != record[name]:
            raise ValueError(
                f"not an encounter record: {where}: {name} {note[name]!r} is not the"
                f" encounter's {record[name]!r}"
            )
    try:
        chart_time(note["chart_date"])
    except ValueError as exc:
        raise ValueError(f"not an encounter record: {where}: {exc}") from None


def _note(record: dict) -> ClinicalNote:
    return ClinicalNote(*map(record.__getitem__, NOTE_FIELDS))


_NOTE_TYPES = tuple((name, str) for name in NOTE_FIELDS)
_ENCOUNTER_FIELDS = (
    ("subject_id", str), ("encounter_id", str), ("prior_notes", list), ("discharge_summary", dict)
)


def check_fields(record, kind: str, fields, where: str = "") -> None:
    """Raise ``ValueError("not <kind> record: ...")`` unless ``record`` is a dict
    holding each (name, type) of ``fields`` with exactly that type (so ``true``
    is no int); ``where`` locates a nested record."""
    if type(record) is not dict:
        problem = f"a JSON {type(record).__name__}, not an object"
    else:
        for name, expected in fields:
            if type(record.get(name)) is not expected:
                problem = f"field {name!r} missing or not of type {expected.__name__}"
                break
        else:
            return
    raise ValueError(f"not {kind} record: {where + ': ' if where else ''}{problem}")


def check_finite(value, what: str) -> float:
    """``value`` if it is an int or float other than NaN or an infinity (a bool
    is no number); otherwise ``ValueError("<what> must be a finite number, ...")``."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return value


def named_few(names: Sequence[str]) -> str:
    """The first three of ``names``, quoted, and ``...`` if there are more."""
    return ", ".join(map(repr, names[:3])) + (", ..." if len(names) > 3 else "")


@dataclass
class IngestResult:
    notes: list[ClinicalNote]
    skipped_lines: list[int]

    @property
    def skipped(self) -> int:
        return len(self.skipped_lines)


@dataclass
class AssemblyDiagnostics:
    no_discharge: int = 0
    multiple_discharge: int = 0
    missing_admission: int = 0
    notes_after_discharge: int = 0


def ingest_notes(path: str | Path) -> IngestResult:
    """Read a JSONL notes file; malformed lines are skipped and logged."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"notes file not found: {path}")
    notes: list[ClinicalNote] = []
    skipped: list[int] = []
    seen_ids: set[str] = set()
    subjects: dict[str, str] = {}  # encounter_id -> subject_id of its first note
    for lineno, obj in iter_jsonl(path):
        try:
            note = _parse_note(obj, seen_ids, subjects)
        except ValueError as exc:
            skipped.append(lineno)
            logger.warning("%s:%d: skipping note line: %s", path, lineno, exc)
        else:
            notes.append(note)
            seen_ids.add(note.note_id)
            subjects.setdefault(note.encounter_id, note.subject_id)
    return IngestResult(notes, skipped)


def _parse_note(obj, seen_ids: set[str], subjects: Mapping[str, str]) -> ClinicalNote:
    """The note in ``obj``; ``ValueError`` naming why it is not a usable one.

    ``subjects`` maps each encounter_id to the subject of its notes so far.
    """
    if obj is None:
        raise ValueError("not a JSON record")
    check_fields(obj, "a note", _NOTE_TYPES)
    if obj["note_id"] in seen_ids:
        raise ValueError(f"repeated note_id {obj['note_id']!r}")
    subject = subjects.get(obj["encounter_id"], obj["subject_id"])
    if obj["subject_id"] != subject:
        raise ValueError(
            f"subject_id {obj['subject_id']!r} is not {subject!r}, the subject of encounter"
            f" {obj['encounter_id']!r} on an earlier line"
        )
    chart_time(obj["chart_date"])
    return _note(obj)


# YYYY-MM-DD, optionally followed by "T" or one space and HH:MM, HH:MM:SS or
# HH:MM:SS.ffffff; no UTC offset.
_CHART_DATE_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?:[T ][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?"
)


def chart_time(chart_date: str) -> datetime:
    """The time a ``chart_date`` string names; ``ValueError("bad chart_date ...")``
    unless it has the one accepted form and its fields are in range."""
    if _CHART_DATE_RE.fullmatch(chart_date):
        try:
            return datetime.fromisoformat(chart_date)
        except ValueError:
            pass
    raise ValueError(f"bad chart_date {chart_date!r}")


def assemble_encounters(
    notes: Sequence[ClinicalNote],
    require_admission_note: bool = False,
) -> tuple[list[Encounter], AssemblyDiagnostics]:
    """Group notes into encounters, one per encounter_id with a single discharge summary.

    Prior notes are sorted by (chart time, note_id); notes charted after the
    discharge summary are not "prior" and are dropped. Every ``chart_date``
    must be of the form :func:`chart_time` accepts. Encounters with zero or
    multiple discharge summaries are dropped and tallied, as are encounters
    without an admission note when ``require_admission_note`` is set.
    """
    if not notes:
        raise ValueError("assemble_encounters requires a nonempty note list")
    by_encounter: dict[str, list[ClinicalNote]] = {}
    for note in notes:
        by_encounter.setdefault(note.encounter_id, []).append(note)

    diagnostics = AssemblyDiagnostics()
    encounters: list[Encounter] = []
    for encounter_id in sorted(by_encounter):
        group = by_encounter[encounter_id]
        summaries = [n for n in group if n.category.strip().lower() in DISCHARGE_CATEGORIES]
        if len(summaries) == 0:
            diagnostics.no_discharge += 1
            continue
        if len(summaries) > 1:
            diagnostics.multiple_discharge += 1
            continue
        summary = summaries[0]
        discharged = chart_time(summary.chart_date)
        priors = sorted(
            ((chart_time(n.chart_date), n.note_id, n) for n in group if n is not summary),
            key=itemgetter(0, 1),
        )
        kept = [n for charted, _, n in priors if charted <= discharged]
        diagnostics.notes_after_discharge += len(priors) - len(kept)
        if require_admission_note and not any(
            n.category.strip().lower() in ADMISSION_CATEGORIES for n in kept
        ):
            diagnostics.missing_admission += 1
            continue
        encounters.append(
            Encounter(summary.subject_id, encounter_id, tuple(kept), summary)
        )
    return encounters, diagnostics


def check_split_ratios(ratios: Sequence) -> tuple[float, float, float]:
    """``ratios`` as a tuple if it holds one finite fraction in [0, 1] per
    split, summing to 1; otherwise ``ValueError("split ratios ...")``."""
    if len(ratios) != len(SPLIT_NAMES):
        raise ValueError(f"split ratios must be {len(SPLIT_NAMES)} fractions, got {ratios}")
    for ratio in ratios:
        if type(ratio) not in (int, float) or not 0 <= ratio <= 1:
            raise ValueError(f"split ratios must each lie in [0, 1], got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    return tuple(ratios)


def split_by_subject(
    encounters: Sequence[Encounter],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> dict[str, str]:
    """Map every subject_id to exactly one of train/validation/test.

    Subjects are shuffled with a seeded PRNG, then partitioned at cumulative
    ratio boundaries (rounded down), so a fixed seed always reproduces the
    same assignment and all encounters of one subject share a split.
    """
    check_split_ratios(ratios)
    subjects = sorted({e.subject_id for e in encounters})
    if len(subjects) < len(SPLIT_NAMES):
        raise ValueError(
            f"need at least {len(SPLIT_NAMES)} subjects to split, got {len(subjects)}"
        )
    random.Random(seed).shuffle(subjects)
    n = len(subjects)
    first = int(n * ratios[0])
    second = int(n * (ratios[0] + ratios[1]))
    return {
        subject: SPLIT_NAMES[(i >= first) + (i >= second)]
        for i, subject in enumerate(subjects)
    }


def source_sentences(encounter: Encounter, mask_deid: bool = False) -> list[Sentence]:
    """All prior-note sentences of an encounter, keyed by (doc_index, sent_index)."""
    out: list[Sentence] = []
    for doc_index, note in enumerate(encounter.prior_notes):
        out.extend(split_sentences(note.text, doc_index=doc_index, mask_deid=mask_deid))
    return out


def corpus_stats(
    section_records: Mapping[str, Mapping[str, Sequence[Mapping]]],
    encounters: Sequence[Encounter] = (),
    mask_deid: bool = False,
) -> dict:
    """The ``stats.json`` object: per-section output-length statistics plus
    per-encounter source statistics.

    ``section_records`` maps a section name to {split: section records}, and a
    record's ``text`` is its reference. Empty groups produce a count of zero
    with undefined (None) means.
    """
    per_section = {}
    for name, by_split in section_records.items():
        texts = [record["text"] for records in by_split.values() for record in records]
        per_section[name] = {
            "counts": {split: len(records) for split, records in by_split.items()},
            "mean_words": _mean(len(tokenize(t, mask_deid=mask_deid)) for t in texts),
            "mean_sentences": _mean(count_sentences(t) for t in texts),
        }
    return {
        "per_section": per_section,
        "mean_documents": _mean(len(e.prior_notes) for e in encounters),
        "mean_source_words": _mean(
            sum(len(tokenize(n.text, mask_deid=mask_deid)) for n in e.prior_notes)
            for e in encounters
        ),
    }


def _mean(values: Iterable[int]) -> float | None:
    """The mean of ``values``, or None when there are none."""
    values = list(values)
    return fmean(values) if values else None
