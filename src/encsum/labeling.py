"""Built-in baselines: oracle extractive summaries, pseudo sentence-pair labels
and the rule-based extractor, each run over one slice of a dataset.

The oracle and pseudo labels run the same greedy per-reference-sentence argmax
over the full source pool, without removing picked sentences (one source
sentence may serve several reference sentences; duplicates are handled
downstream by the post-processing dedup). Oracle selection scores pairs by
ROUGE-L F1; pseudo pairs for extractor training score by ROUGE-L recall.
"""

from __future__ import annotations

import logging
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .corpus import Encounter, source_sentences
from .dataset import load_instances_with_encounters, summary_record
from .jsonl import encode_line, write_lines
from .rouge import LcsPool, prf
from .sections import HeaderRuleSet, SectionInstance, SectionName, extract_sections
from .textproc import Sentence, split_sentences

logger = logging.getLogger(__name__)

ORACLE_SYSTEM = "oracle_ext"
RULE_SYSTEM = "rule_based_ext"

# Indices into ``rouge.prf``'s (precision, recall, F1).
_RECALL, _F1 = 1, 2
# A source sentence's (doc_index, sent_index), its key.
_KEY = itemgetter(1, 2)
# A source whose key is at least this factor of the best key is rescored.
_NEAR = 1 - 1e-9


def _argmax_per_reference(
    reference_sents: Sequence[Sentence],
    source_sents: Sequence[Sentence],
    lcs_pool: LcsPool,
    metric: int,
) -> list[tuple[Sentence, float]]:
    """For each reference sentence, in order, the source sentence with the
    best ``metric`` of ``rouge.prf`` (ties to the lowest key) and that score.

    ``lcs_pool`` pools the tokens of ``source_sents`` in their order.

    Each source gets a key that orders the sources as their scores do, and
    only the sources whose key lies within a relative 1e-9 of the best are
    rescored with prf. For overlap o, source length n and reference length
    L, F1 = 2o / (n + L), and its key is the ratio o / (n + L). The ratio
    and prf's float F1 each lie within a few ulps of their exact values, so
    a source whose prf F1 is at least that of the best ratio's source has a
    ratio that close to the best. Recall is o / L, and its key is o; with
    L = 0, every overlap and every score is 0.
    """
    if not reference_sents:
        raise ValueError("reference sentence list is empty")
    if not source_sents:
        raise ValueError("source sentence pool is empty, nothing to extract")
    lengths = lcs_pool.lengths
    picks = []
    for ref in reference_sents:
        ref_len = len(ref.tokens)
        lcs = lcs_pool.lcs(lcs_pool.masks_of(ref.tokens))
        if metric == _F1 and ref_len:
            keys = [o / (n + ref_len) for o, n in zip(lcs, lengths)]
        else:
            keys = lcs
        ranked = sorted(keys)
        floor = ranked[-1] * _NEAR
        # Most often the best key is the only one near the best; taking it
        # at once, without the near list, made the `baselines` benchmark
        # about 3% faster (2-core x86-64, Python 3.11).
        if len(ranked) == 1 or ranked[-2] < floor:
            i = keys.index(ranked[-1])
            picks.append((source_sents[i], prf(lcs[i], lengths[i], ref_len)[metric]))
            continue
        near = [i for i, key in enumerate(keys) if key >= floor]
        scores = [prf(lcs[i], lengths[i], ref_len)[metric] for i in near]
        best = max(scores)
        tied = [source_sents[i] for i, score in zip(near, scores) if score == best]
        picks.append((min(tied, key=_KEY), best))
    return picks


def oracle_extract(
    reference_sents: Sequence[Sentence],
    source_sents: Sequence[Sentence],
    lcs_pool: LcsPool,
) -> str:
    """The oracle summary: for each reference sentence, in order, the source
    sentence maximizing ROUGE-L F1, joined by newlines.

    Ties break toward the lowest (doc_index, sent_index). ``lcs_pool`` pools
    the tokens of ``source_sents`` in their order.
    """
    picks = _argmax_per_reference(reference_sents, source_sents, lcs_pool, _F1)
    return "\n".join(s.raw_text for s, _ in picks)


def build_pseudo_pairs(
    reference_sents: Sequence[Sentence],
    source_sents: Sequence[Sentence],
    lcs_pool: LcsPool,
) -> dict:
    """Greedy one-best source sentence per reference sentence by ROUGE-L recall,
    as the ``positives`` and ``pairs`` fields of a pseudo-label record.

    Duplicate source picks collapse into a single positive label.
    ``lcs_pool`` is as for ``oracle_extract``.
    """
    picks = _argmax_per_reference(reference_sents, source_sents, lcs_pool, _RECALL)
    return {
        "positives": [list(key) for key in sorted({s.key for s, _ in picks})],
        "pairs": [
            {"src": list(s.key), "ref": i, "score": score} for i, (s, score) in enumerate(picks)
        ],
    }


def align_instances(
    dataset_dir: str | Path, sections: Sequence[SectionName], split: str,
    align: Callable[[SectionInstance, list[Sentence], list[Sentence], LcsPool], dict],
    mask_deid: bool = False,
) -> list[str]:
    """The JSON line of ``align(instance, reference sentences, source pool,
    its LcsPool)`` for each instance of the ``sections`` in ``split``, in
    section order, then file order.

    The instances are aligned encounter by encounter: each encounter's source
    pool is segmented, and its tokens pooled for the LCS kernel, once for all
    of its sections and dropped before the next encounter's. An instance with
    an empty reference or source pool is skipped with a warning.
    """
    aligned: list[tuple[int, str]] = []
    for encounter, found in _instances_by_encounter(dataset_dir, sections, split):
        pool = source_sentences(encounter, mask_deid=mask_deid)
        lcs_pool = LcsPool([s.tokens for s in pool])
        for position, instance in found:
            refs = split_sentences(instance.reference_text, mask_deid=mask_deid)
            if not refs or not pool:
                logger.warning(
                    "skipping %s/%s: empty %s",
                    instance.encounter_id, instance.section.value,
                    "reference" if not refs else "source pool",
                )
                continue
            aligned.append((position, encode_line(align(instance, refs, pool, lcs_pool))))
    aligned.sort(key=itemgetter(0))
    return [line for _, line in aligned]


def _instances_by_encounter(
    dataset_dir: str | Path, sections: Sequence[SectionName], split: str
) -> Iterable[tuple[Encounter, list[tuple[int, SectionInstance]]]]:
    """Each encounter with its instances of ``sections`` in ``split`` and their
    positions in section order, then file order; the encounters in order of
    first appearance."""
    per_section, encounters = load_instances_with_encounters(dataset_dir, sections, split)
    instances = chain.from_iterable(per_section)
    by_encounter: dict[str, tuple[Encounter, list[tuple[int, SectionInstance]]]] = {}
    for position, instance in enumerate(instances):
        encounter_id = instance.encounter_id
        by_encounter.setdefault(encounter_id, (encounters[encounter_id], []))[1].append(
            (position, instance)
        )
    return by_encounter.values()


def write_oracle_summaries(
    dataset_dir: str | Path, sections: Sequence[SectionName], split: str,
    out: str | Path, mask_deid: bool = False,
) -> int:
    """Write the oracle summaries (system ``oracle_ext``); returns their number."""

    def summary(instance, refs, pool, lcs_pool) -> dict:
        text = oracle_extract(refs, pool, lcs_pool)
        return summary_record(instance.encounter_id, instance.section, ORACLE_SYSTEM, text)

    return write_lines(out, align_instances(dataset_dir, sections, split, summary, mask_deid))


def write_pseudo_labels(
    dataset_dir: str | Path, sections: Sequence[SectionName], split: str,
    out: str | Path, mask_deid: bool = False,
) -> int:
    """Write one pseudo-label record per aligned instance; returns their number."""

    def labels(instance, refs, pool, lcs_pool) -> dict:
        return {
            "encounter_id": instance.encounter_id,
            "section": instance.section.value,
            **build_pseudo_pairs(refs, pool, lcs_pool),
        }

    return write_lines(out, align_instances(dataset_dir, sections, split, labels, mask_deid))


def write_rule_summaries(
    dataset_dir: str | Path, sections: Sequence[SectionName], split: str,
    rules: HeaderRuleSet, out: str | Path,
) -> int:
    """Write the rule-based summaries (system ``rule_based_ext``) of the instances
    whose prior notes hold the section; returns their number.

    A summary is ``rule_based_extract_from_priors`` of its instance. Each
    encounter's prior notes are scanned once for all of its sections, and the
    scans are dropped before the next encounter's; rows are in section order,
    then file order.
    """
    rows: list[tuple[int, str]] = []
    for encounter, found in _instances_by_encounter(dataset_dir, sections, split):
        scans = [extract_sections(note.text, rules) for note in encounter.prior_notes]
        for position, instance in found:
            hits = [scan[instance.section].reference_text for scan in scans
                    if instance.section in scan]
            if hits:
                text = "\n\n".join(hits)
                rows.append((position, encode_line(summary_record(
                    instance.encounter_id, instance.section, RULE_SYSTEM, text
                ))))
    rows.sort(key=itemgetter(0))
    return write_lines(out, [line for _, line in rows])
