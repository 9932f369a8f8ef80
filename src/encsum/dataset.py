"""Dataset directory layout: building, loading, and the summary wire format.

A built dataset directory contains::

    encounters.jsonl                 assembled encounters with full note text
    splits.jsonl                     {"subject_id": ..., "split": ...}
    sections/<section>__<split>.jsonl    {"encounter_id", "section", "text", "start", "end"}
    stats.json / stats.csv           corpus statistics
    manifest.json                    seed, ratios, diagnostics, per-section counts

Per section, an encounter whose discharge summary yields no section header or
an empty body is excluded from that section's files.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import (
    SPLIT_NAMES,
    Encounter,
    assemble_encounters,
    check_fields,
    corpus_stats,
    ingest_notes,
    split_by_subject,
)
from .jsonl import read_jsonl, read_jsonl_keyed, write_json, write_jsonl
from .reports import render_stats_csv
from .sections import HeaderRuleSet, SectionInstance, SectionName, extract_section

logger = logging.getLogger(__name__)


def section_file(dataset_dir: str | Path, section: SectionName, split: str) -> Path:
    return Path(dataset_dir) / "sections" / f"{section.value}__{split}.jsonl"


def build_dataset(
    notes_path: str | Path,
    rules: HeaderRuleSet,
    out_dir: str | Path,
    seed: int = 0,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    require_admission: bool = False,
    mask_deid: bool = False,
) -> dict:
    """Ingest notes, assemble encounters, split subjects, and extract targets."""
    out_dir = Path(out_dir)
    ingest = ingest_notes(notes_path)
    if ingest.skipped:
        logger.warning("skipped %d malformed note lines", ingest.skipped)
    encounters, diagnostics = assemble_encounters(
        ingest.notes, require_admission_note=require_admission
    )
    if not encounters:
        raise ValueError("no valid encounters could be assembled")
    assignment = split_by_subject(encounters, ratios=ratios, seed=seed)

    section_counts: dict[str, dict[str, int]] = {}
    stats_texts: dict[str, list[tuple[str, str]]] = {s.value: [] for s in SectionName}
    per_section_rows: dict[tuple[SectionName, str], list[dict]] = {
        (section, split): [] for section in SectionName for split in SPLIT_NAMES
    }
    excluded: dict[str, int] = {s.value: 0 for s in SectionName}
    for encounter in encounters:
        split = assignment.split_of(encounter.subject_id)
        for section in SectionName:
            instance = extract_section(
                encounter.discharge_summary.text,
                section,
                rules,
                encounter_id=encounter.encounter_id,
            )
            if instance is None or not instance.reference_text.strip():
                excluded[section.value] += 1
                continue
            per_section_rows[(section, split)].append(instance.to_record())
            stats_texts[section.value].append((split, instance.reference_text))

    out_dir.mkdir(parents=True, exist_ok=True)
    write_jsonl(out_dir / "encounters.jsonl", (e.to_record() for e in encounters))
    write_jsonl(out_dir / "splits.jsonl", assignment.to_records())
    for (section, split), rows in sorted(
        per_section_rows.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
    ):
        write_jsonl(section_file(out_dir, section, split), rows)
        section_counts.setdefault(section.value, {})[split] = len(rows)

    stats = corpus_stats(stats_texts, encounters, mask_deid=mask_deid)
    write_json(out_dir / "stats.json", stats.to_record())
    (out_dir / "stats.csv").write_text(
        render_stats_csv(stats.to_record()["per_section"], SPLIT_NAMES), encoding="utf-8"
    )

    manifest = {
        "seed": seed,
        "ratios": list(ratios),
        "require_admission": require_admission,
        "notes_ingested": len(ingest.notes),
        "notes_skipped": ingest.skipped,
        "encounters": len(encounters),
        "subjects": {
            split: len(assignment.subjects(split)) for split in SPLIT_NAMES
        },
        "assembly_diagnostics": diagnostics.to_record(),
        "section_counts": section_counts,
        "sections_excluded_empty": excluded,
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest


def load_encounters(dataset_dir: str | Path) -> dict[str, Encounter]:
    """Map encounter_id -> encounter; a repeated encounter_id is fatal with
    ``<file>:<line>``."""
    path = Path(dataset_dir) / "encounters.jsonl"
    if not path.is_file():
        raise FileNotFoundError(f"not a dataset directory (missing {path})")
    return read_jsonl_keyed(path, _keyed_encounter, "encounter_id")


def _keyed_encounter(record) -> tuple[str, Encounter]:
    encounter = Encounter.from_record(record)
    return encounter.encounter_id, encounter


def load_splits(dataset_dir: str | Path) -> dict[str, str]:
    return dict(read_jsonl(Path(dataset_dir) / "splits.jsonl", _split_row))


def _split_row(record) -> tuple[str, str]:
    check_fields(record, "a split", (("subject_id", str), ("split", str)))
    if record["split"] not in SPLIT_NAMES:
        raise ValueError(f"not a split record: unknown split {record['split']!r}")
    return record["subject_id"], record["split"]


def load_section_instances(
    dataset_dir: str | Path, section: SectionName, split: str
) -> list[SectionInstance]:
    path = section_file(dataset_dir, section, split)
    if not path.is_file():
        raise FileNotFoundError(f"missing section file: {path}")
    return read_jsonl(path, SectionInstance.from_record)


def iter_instances(
    dataset_dir: str | Path, sections: Sequence[SectionName], split: str
) -> Iterator[tuple[Encounter, SectionName, SectionInstance]]:
    """Yield (encounter, section, instance) for each section's instances in one split.

    An instance whose encounter has no record in ``encounters.jsonl`` is
    fatal, naming the section file and the encounter.
    """
    encounters = load_encounters(dataset_dir)
    for section in sections:
        for instance in load_section_instances(dataset_dir, section, split):
            encounter = encounters.get(instance.encounter_id)
            if encounter is None:
                raise ValueError(
                    f"{section_file(dataset_dir, section, split)}: no encounter record "
                    f"for {instance.encounter_id!r}"
                )
            yield encounter, section, instance


_SUMMARY_FIELDS = tuple((name, str) for name in ("encounter_id", "section", "system", "text"))


def summary_record(encounter_id: str, section: SectionName, system: str, text: str) -> dict:
    return {
        "encounter_id": encounter_id,
        "section": section.value,
        "system": system,
        "text": text,
    }


def read_system_summaries(paths: Iterable[str | Path]) -> dict[tuple[str, str, str], str]:
    """Map (encounter_id, section, system) -> summary text across summary files.

    A record without the four string fields, or a key seen twice, in one file
    or across files, is fatal with ``<file>:<line>``.
    """
    out: dict[tuple[str, str, str], str] = {}

    def add(record) -> None:
        check_fields(record, "a system summary", _SUMMARY_FIELDS)
        key = (record["encounter_id"], record["section"], record["system"])
        if key in out:
            raise ValueError(f"duplicate (encounter, section, system) summary {key}")
        out[key] = record["text"]

    for path in paths:
        read_jsonl(path, add)
    return out
