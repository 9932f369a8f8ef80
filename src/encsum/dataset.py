"""Dataset directory layout: building, loading, and the summary wire format.

A built dataset directory contains::

    encounters__<split>.jsonl        the split's assembled encounters with full note text
    splits.jsonl                     {"subject_id": ..., "split": ...}
    sections/<section>__<split>.jsonl    {"encounter_id", "section", "text", "start", "end"}
    stats.json / stats.csv           corpus statistics
    manifest.json                    seed, ratios, diagnostics, per-section counts

A command reads the encounter file of its split only, and none reads ``splits.jsonl``.
Per section, an encounter whose discharge summary yields no section header or
an empty body is excluded from that section's files.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Container, Iterable, Sequence

from .corpus import (
    SPLIT_NAMES,
    Encounter,
    assemble_encounters,
    check_fields,
    corpus_stats,
    ingest_notes,
    split_by_subject,
)
from .jsonl import read_jsonl, read_jsonl_keyed, write_json, write_jsonl, write_text
from .reports import render_stats_csv
from .sections import HeaderRuleSet, SectionInstance, SectionName, extract_section

logger = logging.getLogger(__name__)


def encounter_file(dataset_dir: str | Path, split: str) -> Path:
    return Path(dataset_dir) / f"encounters__{split}.jsonl"


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
    splits = split_by_subject(encounters, ratios=ratios, seed=seed)

    # section name -> split -> the records of that section file
    section_records: dict[str, dict[str, list[dict]]] = {
        section.value: {split: [] for split in SPLIT_NAMES} for section in SectionName
    }
    excluded = dict.fromkeys(section_records, 0)
    for encounter in encounters:
        split = splits[encounter.subject_id]
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
            section_records[section.value][split].append(instance.to_record())

    out_dir.mkdir(parents=True, exist_ok=True)
    for split in SPLIT_NAMES:
        members = (e.to_record() for e in encounters if splits[e.subject_id] == split)
        write_jsonl(encounter_file(out_dir, split), members)
    write_jsonl(
        out_dir / "splits.jsonl",
        ({"subject_id": s, "split": split} for s, split in sorted(splits.items())),
    )
    for name, by_split in section_records.items():
        for split, records in by_split.items():
            write_jsonl(section_file(out_dir, SectionName(name), split), records)

    stats = corpus_stats(section_records, encounters, mask_deid=mask_deid)
    write_json(out_dir / "stats.json", stats)
    write_text(out_dir / "stats.csv", render_stats_csv(stats["per_section"]))

    subjects = Counter(splits.values())
    manifest = {
        "seed": seed,
        "ratios": list(ratios),
        "require_admission": require_admission,
        "notes_ingested": len(ingest.notes),
        "notes_skipped": ingest.skipped,
        "encounters": len(encounters),
        "subjects": {split: subjects[split] for split in SPLIT_NAMES},
        "assembly_diagnostics": asdict(diagnostics),
        "section_counts": {name: s["counts"] for name, s in stats["per_section"].items()},
        "sections_excluded_empty": excluded,
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest


def load_encounters(dataset_dir: str | Path, split: str) -> dict[str, Encounter]:
    """Map encounter_id -> encounter for ``split``; a record that is not an
    encounter record, or a repeated encounter_id, is fatal with ``<file>:<line>``."""
    path = encounter_file(dataset_dir, split)
    if not path.is_file():
        raise FileNotFoundError(f"not a dataset directory (missing {path})")
    return read_jsonl_keyed(path, _keyed_encounter, "encounter_id")


def _keyed_encounter(record) -> tuple[str, Encounter]:
    encounter = Encounter.from_record(record)
    return encounter.encounter_id, encounter


def load_section_instances(
    dataset_dir: str | Path,
    section: SectionName,
    split: str,
    encounters: Container[str] | None = None,
) -> list[SectionInstance]:
    """The section's instances in ``split``, in file order.

    A record naming another section, an ``encounter_id`` seen twice, or, when
    ``encounters`` is given, an ``encounter_id`` not in it, is fatal with
    ``<file>:<line>``.
    """
    path = section_file(dataset_dir, section, split)
    if not path.is_file():
        raise FileNotFoundError(f"missing section file: {path}")

    def keyed(record) -> tuple[str, SectionInstance]:
        instance = SectionInstance.from_record(record)
        if instance.section is not section:
            raise ValueError(
                f"section {instance.section.value!r} in a {section.value!r} section file"
            )
        if encounters is not None and instance.encounter_id not in encounters:
            raise ValueError(f"no encounter record for {instance.encounter_id!r}")
        return instance.encounter_id, instance

    return list(read_jsonl_keyed(path, keyed, "encounter_id").values())


def load_instances_with_encounters(
    dataset_dir: str | Path, sections: Sequence[SectionName], split: str
) -> tuple[list[list[SectionInstance]], dict[str, Encounter]]:
    """Each of ``sections``' instances in ``split``, as ``load_section_instances``
    lists them against the encounters of ``split``, and those encounters by
    encounter_id. The encounter file is read first, so its faults come first.
    """
    encounters = load_encounters(dataset_dir, split)
    return [load_section_instances(dataset_dir, s, split, encounters) for s in sections], encounters


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
