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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .corpus import source_sentences
from .dataset import iter_instances, summary_record
from .jsonl import write_jsonl
from .rouge import rouge_l
from .sections import HeaderRuleSet, SectionInstance, SectionName, rule_based_extract_from_priors
from .textproc import Sentence, split_sentences

logger = logging.getLogger(__name__)

ORACLE_SYSTEM = "oracle_ext"
RULE_SYSTEM = "rule_based_ext"


@dataclass(frozen=True)
class OraclePick:
    reference_index: int
    source_key: tuple[int, int]
    score: float


@dataclass(frozen=True)
class OracleExtraction:
    picks: tuple[OraclePick, ...]
    summary_text: str


@dataclass(frozen=True)
class PseudoPair:
    source_key: tuple[int, int]
    reference_index: int
    score: float


@dataclass(frozen=True)
class PseudoPairSet:
    pairs: tuple[PseudoPair, ...]
    positives: tuple[tuple[int, int], ...]

    def to_record(self, encounter_id: str, section: str) -> dict:
        return {
            "encounter_id": encounter_id,
            "section": section,
            "positives": [list(key) for key in self.positives],
            "pairs": [
                {"src": list(p.source_key), "ref": p.reference_index, "score": p.score}
                for p in self.pairs
            ],
        }


def _argmax_per_reference(
    reference_sents: Sequence[Sentence],
    source_sents: Sequence[Sentence],
    score_fn: Callable[[Sequence[str], Sequence[str]], float],
) -> list[tuple[int, Sentence, float]]:
    if not reference_sents:
        raise ValueError("reference sentence list is empty")
    if not source_sents:
        raise ValueError("source sentence pool is empty, nothing to extract")
    picks = []
    for ref_index, ref in enumerate(reference_sents):
        best_sent = None
        best_score = -1.0
        for src in source_sents:
            score = score_fn(src.tokens, ref.tokens)
            if score > best_score or (score == best_score and src.key < best_sent.key):
                best_sent = src
                best_score = score
        picks.append((ref_index, best_sent, best_score))
    return picks


def oracle_extract(
    reference_sents: Sequence[Sentence], source_sents: Sequence[Sentence]
) -> OracleExtraction:
    """For each reference sentence pick the source sentence maximizing ROUGE-L F1.

    Ties break toward the lowest (doc_index, sent_index). Picks keep reference
    order and the oracle summary joins the picked sentences in that order.
    """
    picks = _argmax_per_reference(
        reference_sents, source_sents, lambda c, r: rouge_l(c, r).f1
    )
    return OracleExtraction(
        picks=tuple(OraclePick(i, s.key, score) for i, s, score in picks),
        summary_text="\n".join(s.raw_text for _, s, _ in picks),
    )


def build_pseudo_pairs(
    reference_sents: Sequence[Sentence], source_sents: Sequence[Sentence]
) -> PseudoPairSet:
    """Greedy one-best source sentence per reference sentence by ROUGE-L recall.

    Duplicate source picks collapse into a single positive label.
    """
    picks = _argmax_per_reference(
        reference_sents, source_sents, lambda c, r: rouge_l(c, r).recall
    )
    return PseudoPairSet(
        pairs=tuple(PseudoPair(s.key, i, score) for i, s, score in picks),
        positives=tuple(sorted({s.key for _, s, _ in picks})),
    )


def aligned_instances(
    dataset_dir: str | Path, sections: Sequence[SectionName], split: str, mask_deid: bool = False
) -> Iterator[tuple[SectionInstance, SectionName, list[Sentence], list[Sentence]]]:
    """Yield (instance, section, reference sentences, source pool) for alignment.

    Each encounter's source pool is segmented once and shared by all of its
    sections. An instance with an empty reference or source pool is skipped
    with a warning.
    """
    pools: dict[str, list[Sentence]] = {}
    for encounter, section, instance in iter_instances(dataset_dir, sections, split):
        refs = split_sentences(instance.reference_text, mask_deid=mask_deid)
        pool = pools.get(encounter.encounter_id)
        if pool is None:
            pool = source_sentences(encounter, mask_deid=mask_deid)
            pools[encounter.encounter_id] = pool
        if not refs or not pool:
            logger.warning(
                "skipping %s/%s: empty %s",
                instance.encounter_id, section.value,
                "reference" if not refs else "source pool",
            )
            continue
        yield instance, section, refs, pool


def write_oracle_summaries(
    dataset_dir: str | Path, sections: Sequence[SectionName], split: str,
    out: str | Path, mask_deid: bool = False,
) -> int:
    """Write the oracle summaries (system ``oracle_ext``); returns their number."""
    aligned = aligned_instances(dataset_dir, sections, split, mask_deid)
    rows = [
        summary_record(
            instance.encounter_id, section, ORACLE_SYSTEM, oracle_extract(refs, pool).summary_text
        )
        for instance, section, refs, pool in aligned
    ]
    write_jsonl(out, rows)
    return len(rows)


def write_pseudo_labels(
    dataset_dir: str | Path, sections: Sequence[SectionName], split: str,
    out: str | Path, mask_deid: bool = False,
) -> int:
    """Write one pseudo-label record per aligned instance; returns their number."""
    aligned = aligned_instances(dataset_dir, sections, split, mask_deid)
    rows = [
        build_pseudo_pairs(refs, pool).to_record(instance.encounter_id, section.value)
        for instance, section, refs, pool in aligned
    ]
    write_jsonl(out, rows)
    return len(rows)


def write_rule_summaries(
    dataset_dir: str | Path, sections: Sequence[SectionName], split: str,
    rules: HeaderRuleSet, out: str | Path,
) -> int:
    """Write the rule-based summaries (system ``rule_based_ext``) of the instances
    whose prior notes hold the section; returns their number."""
    rows = []
    for encounter, section, instance in iter_instances(dataset_dir, sections, split):
        text = rule_based_extract_from_priors(encounter, section, rules)
        if text is not None:
            rows.append(summary_record(instance.encounter_id, section, RULE_SYSTEM, text))
    write_jsonl(out, rows)
    return len(rows)
