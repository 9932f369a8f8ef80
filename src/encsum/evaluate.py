"""Scoring of system summaries: ROUGE-1/2/L and entity faithfulness per section.

This is the only code that scores summaries. Entity sets come from an entity
source with three methods, ``source(encounter)``, ``reference(instance)`` and
``system(instance, system, text)``: :class:`GazetteerEntities` matches a term
list, :class:`AnnotatedEntities` looks up ingested annotations, and tests may
pass any object with the same methods.
"""

from __future__ import annotations

import glob
import logging
from pathlib import Path
from statistics import fmean
from typing import Mapping, Sequence

from .corpus import Encounter
from .dataset import iter_instances, read_system_summaries
from .faithfulness import (
    DEFAULT_BETA,
    EntitySet,
    Gazetteer,
    aggregate_scores,
    extract_entities_gazetteer,
    ingest_entity_annotations,
    load_default_gazetteer,
    score_sets,
)
from .reports import MetricReport, ReportRow, write_report
from .rouge import rouge_l, rouge_n
from .sections import SectionInstance, SectionName
from .textproc import split_sentences, tokenize

logger = logging.getLogger(__name__)


class GazetteerEntities:
    """Gazetteer matches; an encounter's source set is the union over its prior notes.

    Each note is matched on its own, so no term spans two notes. The source set
    is computed once per encounter and reused by every section and system.
    """

    def __init__(self, gazetteer: Gazetteer):
        self.gazetteer = gazetteer
        self._sources: dict[str, EntitySet] = {}

    def source(self, encounter: Encounter) -> EntitySet:
        key = encounter.encounter_id
        if key not in self._sources:
            self._sources[key] = EntitySet(frozenset().union(*(
                extract_entities_gazetteer(note.text, self.gazetteer, "source").entities
                for note in encounter.prior_notes
            )), "source")
        return self._sources[key]

    def reference(self, instance: SectionInstance) -> EntitySet:
        return extract_entities_gazetteer(instance.reference_text, self.gazetteer, "reference")

    def system(self, instance: SectionInstance, system: str, text: str) -> EntitySet:
        return extract_entities_gazetteer(text, self.gazetteer, "system")


class AnnotatedEntities:
    """Ingested annotations keyed ``enc:<id>:src``, ``enc:<id>:<section>:ref`` and
    ``enc:<id>:<section>:sys:<system>``; a missing key is an empty set."""

    def __init__(self, annotations: Mapping[str, EntitySet]):
        self.annotations = annotations

    def _get(self, key: str, origin: str) -> EntitySet:
        return self.annotations.get(key, EntitySet(frozenset(), origin))

    def source(self, encounter: Encounter) -> EntitySet:
        return self._get(f"enc:{encounter.encounter_id}:src", "source")

    def reference(self, instance: SectionInstance) -> EntitySet:
        return self._get(f"enc:{instance.encounter_id}:{instance.section.value}:ref", "reference")

    def system(self, instance: SectionInstance, system: str, text: str) -> EntitySet:
        return self._get(
            f"enc:{instance.encounter_id}:{instance.section.value}:sys:{system}", "system"
        )


def score_section(
    instances: Sequence[SectionInstance],
    encounters: Mapping[str, Encounter],
    summaries: Mapping[tuple[str, str, str], str],
    entities,
    beta: float,
    mask_deid: bool = False,
) -> list[ReportRow]:
    """One report row per system, macro-averaged over one section's instances.

    ``summaries`` maps (encounter_id, section, system) to the summary text.
    Every system found in it gets a row, in name order; a system with no
    summary for an instance is scored on the empty text. Instances are scored
    in encounter-id order.
    """
    if not instances:
        raise ValueError("score_section requires at least one instance")
    systems = sorted({system for _, _, system in summaries})
    if not systems:
        raise ValueError("no system summaries to score")
    section = instances[0].section
    instances = sorted(instances, key=lambda i: i.encounter_id)
    rouge = {system: ([], [], []) for system in systems}
    faith = {system: [] for system in systems}
    words, sents = [], []
    for instance in instances:
        encounter = encounters.get(instance.encounter_id)
        if encounter is None:
            raise KeyError(f"dataset has no encounter record for {instance.encounter_id}")
        ref = [t.surface for t in tokenize(instance.reference_text, mask_deid=mask_deid)]
        words.append(len(ref))
        sents.append(len(split_sentences(instance.reference_text, mask_deid=mask_deid)))
        source_set = entities.source(encounter)
        ref_set = entities.reference(instance)
        for system in systems:
            text = summaries.get((instance.encounter_id, section.value, system), "")
            cand = [t.surface for t in tokenize(text, mask_deid=mask_deid)]
            r1, r2, rl = rouge[system]
            r1.append(rouge_n(cand, ref, 1))
            r2.append(rouge_n(cand, ref, 2))
            rl.append(rouge_l(cand, ref))
            sys_set = entities.system(instance, system, text)
            faith[system].append(score_sets(source_set, ref_set, sys_set, beta))

    def prf(scores):
        return (
            fmean(s.precision for s in scores),
            fmean(s.recall for s in scores),
            fmean(s.f1 for s in scores),
        )

    mean_words, mean_sents = fmean(words), fmean(sents)
    rows = []
    for system in systems:
        r1, r2, rl = rouge[system]
        agg = aggregate_scores(faith[system], beta)
        rows.append(ReportRow(
            section=section.value,
            system=system,
            instances=len(instances),
            rouge1=prf(r1),
            rouge2=prf(r2),
            rouge_l=prf(rl),
            fa_precision=agg.fa_precision,
            fa_recall=agg.fa_recall,
            fa_f_beta=agg.fa_f_beta,
            beta=beta,
            incorrect_hallucination_rate=agg.incorrect_hallucination_rate,
            empty_system=agg.empty_system_count,
            empty_relevant=agg.empty_relevant_count,
            mean_output_words=mean_words,
            mean_output_sentences=mean_sents,
        ))
    return rows


def write_evaluation(
    dataset_dir: str | Path,
    systems: str,
    split: str,
    sections: Sequence[SectionName],
    out: str | Path,
    annotations: str | Path | None = None,
    gazetteer: str | Path | None = None,
    beta: float = DEFAULT_BETA,
    mask_deid: bool = False,
) -> Path:
    """Score the summary files matching the glob ``systems`` on each section's
    instances in ``split`` and write the report into ``out``; returns its directory.

    Entity sets come from the ``annotations`` file if given, else from the
    ``gazetteer`` term file, else from the packaged gazetteer. A section with
    no instances is skipped with a warning.
    """
    summary_files = sorted(glob.glob(systems))
    if not summary_files:
        raise ValueError(f"no summary files match {systems!r}")
    summaries = read_system_summaries(summary_files)
    if annotations is not None:
        entities = AnnotatedEntities(ingest_entity_annotations(annotations))
    elif gazetteer is not None:
        entities = GazetteerEntities(Gazetteer.from_file(gazetteer))
    else:
        entities = GazetteerEntities(load_default_gazetteer())
    instances: dict[SectionName, list[SectionInstance]] = {section: [] for section in sections}
    encounters: dict[str, Encounter] = {}
    for encounter, section, instance in iter_instances(dataset_dir, sections, split):
        instances[section].append(instance)
        encounters[encounter.encounter_id] = encounter
    rows = []
    for section, found in instances.items():
        if not found:
            logger.warning("no %s instances in split %s", section.value, split)
            continue
        rows += score_section(found, encounters, summaries, entities, beta, mask_deid=mask_deid)
    if not rows:
        raise ValueError("nothing to evaluate: no instances in the requested sections/split")
    return write_report(MetricReport(tuple(rows)), out)["table"].parent
