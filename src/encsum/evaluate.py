"""Scoring of system summaries: ROUGE-1/2/L and entity faithfulness per section.

This is the only code that scores summaries. Each (instance, system) pair is
scored once into a per-instance record: ROUGE-1/2/L P/R/F1, faithfulness-
adjusted P/R/F_beta, the incorrect hallucination rate, and the empty-system
and empty-relevant flags. A system's report row holds the column means of its
records over the section's instances, with the two flags summed to counts.

Entity sets come from one function, ``entities(key, texts, tokens=None) ->
frozenset[str]``, called once per set with the set's annotation key
(``enc:<id>:src``, ``enc:<id>:<section>:ref`` or
``enc:<id>:<section>:sys:<system>``) and the texts it is drawn from. Where
ROUGE has already tokenized those texts unmasked, ``tokens`` holds
``tokenize(t)`` for each text ``t``, so that they are not tokenized again.
:func:`gazetteer_entities` matches a term list in the texts and
:func:`annotated_entities` looks the key up in ingested annotations.
"""

from __future__ import annotations

import glob
import logging
from collections import Counter
from itertools import repeat
from pathlib import Path
from statistics import fmean
from typing import Callable, Mapping, Sequence

from .corpus import named_few
from .dataset import load_instances_with_encounters, read_system_summaries
from .faithfulness import (
    DEFAULT_BETA,
    Gazetteer,
    extract_entities_gazetteer,
    ingest_entity_annotations,
    load_gazetteer,
    match_gazetteer,
    score_sets,
)
from .reports import ReportRow, write_report
from .rouge import LcsPool, prf
from .sections import SectionInstance, SectionName
from .textproc import count_sentences, tokenize

logger = logging.getLogger(__name__)

EntitySource = Callable[[str, Sequence[str], Sequence[Sequence[str]] | None], frozenset[str]]


def gazetteer_entities(gazetteer: Gazetteer) -> EntitySource:
    """The union of the gazetteer's matches in each text; no term spans two texts."""

    def entities(
        key: str, texts: Sequence[str], tokens: Sequence[Sequence[str]] | None = None
    ) -> frozenset[str]:
        if tokens is None:
            return frozenset().union(*(extract_entities_gazetteer(t, gazetteer) for t in texts))
        return frozenset().union(*(match_gazetteer(t, gazetteer) for t in tokens))

    return entities


def annotated_entities(
    annotations: Mapping[str, frozenset[str]], looked_up: set[str]
) -> EntitySource:
    """The ingested annotation for the key; a missing key is an empty set.

    Each key asked for is added to ``looked_up``.
    """

    def entities(
        key: str, texts: Sequence[str], tokens: Sequence[Sequence[str]] | None = None
    ) -> frozenset[str]:
        looked_up.add(key)
        return annotations.get(key, frozenset())

    return entities


def _overlap(cand: Counter, ref: Counter) -> int:
    """The multiset overlap of two n-gram counts, ``sum((cand & ref).values())``.

    Counter's & would call __missing__ for each n-gram the reference lacks.
    """
    return sum(map(min, cand.values(), map(ref.get, cand, repeat(0))))


def score_section(
    instances: Sequence[SectionInstance],
    sources: Mapping[str, frozenset[str]],
    summaries: Mapping[tuple[str, str, str], str],
    entities: EntitySource,
    beta: float,
    mask_deid: bool = False,
) -> list[ReportRow]:
    """One report row per system: the column means of its per-instance scores
    over one section's instances.

    ``sources`` maps encounter_id to the entity set of its prior notes, and
    ``summaries`` maps (encounter_id, section, system) to the summary text.
    Every system found in ``summaries`` gets a row, in name order; a system
    with no summary for an instance is scored on the empty text. Instances are
    scored in encounter-id order.
    """
    if not instances:
        raise ValueError("score_section requires at least one instance")
    systems = sorted({system for _, _, system in summaries})
    if not systems:
        raise ValueError("no system summaries to score")
    section = instances[0].section
    instances = sorted(instances, key=lambda i: i.encounter_id)
    scores: dict[str, list[tuple]] = {system: [] for system in systems}
    words, sents = [], []
    for instance in instances:
        ref = tokenize(instance.reference_text, mask_deid=mask_deid)
        words.append(len(ref))
        sents.append(count_sentences(instance.reference_text))
        source_set = sources[instance.encounter_id]
        prefix = f"enc:{instance.encounter_id}:{section.value}"
        # Unmasked, the ROUGE tokens are the entity source's tokens too.
        ref_set = entities(
            f"{prefix}:ref", (instance.reference_text,), None if mask_deid else (ref,)
        )
        # The reference side of ROUGE-1/2/L, built once and shared by every
        # system; the scores equal rouge_n(cand, ref, 1|2) and rouge_l(cand, ref).
        ref_unigrams, ref_bigrams = Counter(ref), Counter(zip(ref, ref[1:]))
        ref_pool = LcsPool((ref,))
        for system in systems:
            text = summaries.get((instance.encounter_id, section.value, system), "")
            cand = tokenize(text, mask_deid=mask_deid)
            unigrams = _overlap(Counter(cand), ref_unigrams)
            bigrams = _overlap(Counter(zip(cand, cand[1:])), ref_bigrams)
            [lcs] = ref_pool.lcs(ref_pool.masks_of(cand))
            sys_set = entities(f"{prefix}:sys:{system}", (text,), None if mask_deid else (cand,))
            fa = score_sets(source_set, ref_set, sys_set, beta)
            scores[system].append((
                *prf(unigrams, len(cand), len(ref)),
                *prf(bigrams, max(len(cand) - 1, 0), max(len(ref) - 1, 0)),
                *prf(lcs, len(cand), len(ref)),
                fa.fa_precision, fa.fa_recall, fa.fa_f_beta, fa.incorrect_hallucination_rate,
                fa.empty_system, fa.empty_relevant,
            ))
    mean_words, mean_sents = fmean(words), fmean(sents)
    rows = []
    for system in systems:
        # A record holds ReportRow's metric columns in order, less beta: the
        # 12 from rouge1_p to fa_f_beta, the hallucination rate, then the two
        # empty flags, which are summed to counts.
        *columns, empty_system, empty_relevant = zip(*scores[system])
        *up_to_f_beta, hallucination = map(fmean, columns)
        rows.append(ReportRow(
            section.value, system, len(instances), *up_to_f_beta, beta, hallucination,
            sum(empty_system), sum(empty_relevant), mean_words, mean_sents,
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
) -> int:
    """Score the summary files matching the glob ``systems`` on each section's
    instances in ``split`` and write the report into ``out``; returns its number
    of (section, system) rows.

    Entity sets come from the ``annotations`` file if given, else from
    ``load_gazetteer(gazetteer)``. A section with no instances is skipped
    with a warning. Summaries that match no scored (encounter, section) are
    ignored with one warning per system counting them; a system none of whose
    summaries match is fatal. Annotation keys that no scored set looks up are
    ignored with one warning counting them.
    """
    summary_files = sorted(glob.glob(systems))
    if not summary_files:
        raise ValueError(f"no summary files match {systems!r}")
    summaries = read_system_summaries(summary_files)
    annotated: dict[str, frozenset[str]] = {}
    looked_up: set[str] = set()
    if annotations is not None:
        annotated = ingest_entity_annotations(annotations)
        entities = annotated_entities(annotated, looked_up)
    else:
        entities = gazetteer_entities(load_gazetteer(gazetteer))
    per_section, encounters = load_instances_with_encounters(dataset_dir, sections, split)
    instances: dict[SectionName, list[SectionInstance]] = {}
    for section, found in zip(sections, per_section):
        if found:
            instances[section] = found
        else:
            logger.warning("no %s instances in split %s", section.value, split)
    if not instances:
        raise ValueError("nothing to evaluate: no instances in the requested sections/split")
    _check_matched(summaries, instances, split)
    # An encounter's source set is drawn once and shared by its sections and systems.
    scored = dict.fromkeys(i.encounter_id for found in instances.values() for i in found)
    sources = {
        encounter_id: entities(
            f"enc:{encounter_id}:src", [note.text for note in encounters[encounter_id].prior_notes]
        )
        for encounter_id in scored
    }
    rows = []
    for found in instances.values():
        rows += score_section(found, sources, summaries, entities, beta, mask_deid=mask_deid)
    _check_looked_up(annotated, looked_up, split)
    write_report(rows, out)
    return len(rows)


def _check_matched(
    summaries: Mapping[tuple[str, str, str], str],
    instances: Mapping[SectionName, Sequence[SectionInstance]],
    split: str,
) -> None:
    """Warn, per system, how many summaries match none of ``instances``; a
    system with no match at all is fatal."""
    scored = {(i.encounter_id, i.section.value) for found in instances.values() for i in found}
    total = Counter(system for _, _, system in summaries)
    unmatched = Counter(system for enc, sec, system in summaries if (enc, sec) not in scored)
    where = f"{split} instance of the evaluated sections"
    dead = [system for system in sorted(total) if unmatched[system] == total[system]]
    if dead:
        raise ValueError(f"no summary matches a {where}, for system {', '.join(map(repr, dead))}")
    for system in sorted(unmatched):
        logger.warning(
            "system %s: %d of %d summaries match no %s; ignored",
            system, unmatched[system], total[system], where,
        )


def _check_looked_up(
    annotated: Mapping[str, frozenset[str]], looked_up: set[str], split: str
) -> None:
    """Warn how many annotation keys no scored set looked up, naming the first few."""
    unused = sorted(annotated.keys() - looked_up)
    if unused:
        logger.warning(
            "%d of %d annotation keys match no entity set of a %s instance of the evaluated"
            " sections; ignored: %s",
            len(unused), len(annotated), split, named_few(unused),
        )
