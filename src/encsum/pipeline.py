"""Extract-stage plumbing: chunking, score merging, threshold sweeping, post-processing.

External sentence scorers never run in-process; they consume segment files and
produce score files in the wire formats below, and everything here is the
deterministic glue around them:

* ``chunk_encounter`` splits a long encounter into segments under a token
  budget (oversized sentences are hard-windowed);
* ``merge_scores`` reassembles per-segment scores into source order, taking
  the max over the windows of a split sentence;
* ``sweep_threshold`` picks the score cutoff that maximizes mean validation
  ROUGE-L F1 over a quantile grid;
* ``apply_cutoff`` / ``postprocess`` turn scored sentences into a deduplicated
  extractive summary.

This module owns the segment, score, merged-score and sweep-result files:
each is built and parsed only here, and the ``write_*`` functions run the
``chunk``, ``merge-scores``, ``sweep`` and ``cutoff`` commands on them.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from statistics import fmean
from typing import Mapping, Sequence

from .corpus import check_fields, check_finite, source_sentences
from .dataset import load_encounters, load_section_instances, load_splits, summary_record
from .jsonl import read_jsonl_keyed, write_json, write_jsonl
from .rouge import rouge_l
from .sections import SectionName
from .textproc import Sentence, normalize, split_sentences, tokenize

logger = logging.getLogger(__name__)

MAX_THRESHOLD_CANDIDATES = 101


@dataclass(frozen=True)
class ChunkConfig:
    max_tokens: int = 1024

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class Segment:
    segment_id: str
    encounter_id: str
    sentences: tuple[tuple[int, int], ...]
    texts: tuple[str, ...]
    # Known only for segments built by chunk_encounter; segment files omit it.
    token_count: int | None = None

    def to_record(self) -> dict:
        return {
            "segment_id": self.segment_id,
            "encounter_id": self.encounter_id,
            "sentences": [
                {"doc": d, "sent": s, "text": t}
                for (d, s), t in zip(self.sentences, self.texts)
            ],
        }

    @staticmethod
    def from_record(record) -> "Segment":
        """Inverse of ``to_record``; ValueError when ``record`` is not a segment record."""
        check_fields(record, "a segment", _SEGMENT_FIELDS)
        for i, sentence in enumerate(record["sentences"]):
            check_fields(sentence, "a segment", _SENTENCE_TEXT_FIELDS, f"sentences[{i}]")
        return Segment(
            record["segment_id"],
            record["encounter_id"],
            tuple((s["doc"], s["sent"]) for s in record["sentences"]),
            tuple(s["text"] for s in record["sentences"]),
        )


_SENTENCE_KEY_FIELDS = (("doc", int), ("sent", int))
_SEGMENT_FIELDS = (("segment_id", str), ("encounter_id", str), ("sentences", list))
_SENTENCE_TEXT_FIELDS = (*_SENTENCE_KEY_FIELDS, ("text", str))


@dataclass(frozen=True)
class ScoredSentence:
    key: tuple[int, int]
    score: float
    text: str

    def to_record(self) -> dict:
        """The sentence record of a merged-scores file."""
        return {"doc": self.key[0], "sent": self.key[1], "score": self.score, "text": self.text}

    @staticmethod
    def from_record(record) -> "ScoredSentence":
        """Inverse of ``to_record``. A score file's sentence records carry no
        ``text`` and get the empty text. ValueError when ``record`` is not a
        sentence record or its score is not a finite number (a bool is none).
        """
        check_fields(record, "a scored sentence", _SENTENCE_KEY_FIELDS)
        key = (record["doc"], record["sent"])
        text = record.get("text", "")
        if type(text) is not str:
            raise ValueError("not a scored sentence record: field 'text' not of type str")
        score = check_finite(record.get("score"), f"sentence {key}: score")
        return ScoredSentence(key, score, text)


@dataclass(frozen=True)
class ThresholdSweepResult:
    thresholds: tuple[float, ...]
    mean_scores: tuple[float, ...]
    chosen_threshold: float

    def to_record(self, section: SectionName) -> dict:
        """The sweep-result file's JSON object."""
        return {
            "section": section.value,
            "thresholds": list(self.thresholds),
            "mean_rouge_l_f1": list(self.mean_scores),
            "chosen_threshold": self.chosen_threshold,
        }


def chunk_encounter(
    source_sents: Sequence[Sentence],
    cfg: ChunkConfig = ChunkConfig(),
    encounter_id: str = "",
) -> list[Segment]:
    """Greedy-fill sentences into segments of at most ``cfg.max_tokens`` tokens.

    A single sentence longer than the budget is windowed into consecutive
    token slices, each its own segment carrying the same sentence key.
    Concatenating all segments reproduces the source sentence order.
    """
    segments: list[Segment] = []
    current: list[Sentence] = []
    current_tokens = 0

    def flush():
        nonlocal current, current_tokens
        if current:
            segments.append(
                Segment(
                    segment_id=f"{encounter_id}/{len(segments)}",
                    encounter_id=encounter_id,
                    sentences=tuple(s.key for s in current),
                    token_count=current_tokens,
                    texts=tuple(s.raw_text for s in current),
                )
            )
            current = []
            current_tokens = 0

    for sent in source_sents:
        n = len(sent.tokens)
        if n > cfg.max_tokens:
            flush()
            for w in range(0, n, cfg.max_tokens):
                window = sent.tokens[w:w + cfg.max_tokens]
                segments.append(
                    Segment(
                        segment_id=f"{encounter_id}/{len(segments)}",
                        encounter_id=encounter_id,
                        sentences=(sent.key,),
                        token_count=len(window),
                        texts=(" ".join(window),),
                    )
                )
            continue
        if current_tokens + n > cfg.max_tokens:
            flush()
        current.append(sent)
        current_tokens += n
    flush()
    return segments


def merge_scores(
    segments: Sequence[Segment],
    per_segment_scores: Mapping[str, Sequence[ScoredSentence]],
) -> list[ScoredSentence]:
    """Reassemble per-segment scores into one list in source order.

    Every segment must be scored over exactly its own sentence keys. A
    sentence split across windows gets the max of its window scores, and its
    text is the windows' texts rejoined in order.
    """
    merged_score: dict[tuple[int, int], float] = {}
    merged_text: dict[tuple[int, int], list[str]] = {}
    for segment in segments:
        scores = per_segment_scores.get(segment.segment_id)
        if scores is None:
            raise ValueError(f"no score list for segment {segment.segment_id}")
        expected = set(segment.sentences)
        got = {s.key for s in scores}
        if got != expected:
            raise ValueError(
                f"score list for segment {segment.segment_id} does not cover its "
                f"sentences (missing {sorted(expected - got)}, extra {sorted(got - expected)})"
            )
        by_key = {s.key: s for s in scores}
        for key, text in zip(segment.sentences, segment.texts):
            score = by_key[key].score
            if key in merged_score:
                merged_score[key] = max(merged_score[key], score)
                merged_text[key].append(text)
            else:
                merged_score[key] = score
                merged_text[key] = [text]
    return [
        ScoredSentence(key, merged_score[key], " ".join(merged_text[key]))
        for key in sorted(merged_score)
    ]


def postprocess(extracted: Sequence[ScoredSentence]) -> list[ScoredSentence]:
    """Drop exact duplicates (case/whitespace-insensitive), keeping first occurrence."""
    seen: set[str] = set()
    out: list[ScoredSentence] = []
    for sent in extracted:
        norm = normalize(sent.text)
        if norm in seen:
            continue
        seen.add(norm)
        out.append(sent)
    return out


def summary_text(sentences: Sequence[ScoredSentence]) -> str:
    return "\n".join(s.text for s in sentences)


def apply_cutoff(scored: Sequence[ScoredSentence], threshold: float) -> list[ScoredSentence]:
    """Keep sentences scoring at or above ``threshold``, in order, deduplicated."""
    return postprocess([s for s in scored if s.score >= threshold])


def _quantile_grid(scores: Sequence[float], n: int = MAX_THRESHOLD_CANDIDATES) -> list[float]:
    ordered = sorted(scores)
    m = len(ordered)
    grid = []
    for k in range(n):
        pos = (k / (n - 1)) * (m - 1)
        lo = int(pos)
        hi = min(lo + 1, m - 1)
        grid.append(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))
    return sorted(set(grid))


def _tokens_by_text(
    scored: Sequence[ScoredSentence], mask_deid: bool
) -> dict[str, list[str]] | None:
    """The tokens of each distinct sentence text, tokenised once.

    A candidate summary's tokens are then its kept sentences' tokens
    concatenated, which equals tokenising their ``"\\n"`` join unless a
    de-identification placeholder spans a join. That needs a text whose last
    bracket is an unclosed ``[``, as when "Seen by [ Dr. Smith ] today." is
    segmented after "Dr."; for such an instance (masking only) this returns
    None and the joined text is tokenised instead.
    """
    texts = dict.fromkeys(s.text for s in scored)
    if mask_deid and any(t.rfind("[") > t.rfind("]") for t in texts):
        return None
    return {t: tokenize(t, mask_deid=mask_deid) for t in texts}


def sweep_threshold(
    validation: Sequence[tuple[Sequence[ScoredSentence], Sequence[Sentence]]],
    mask_deid: bool = False,
) -> ThresholdSweepResult:
    """Pick the cutoff maximizing mean validation ROUGE-L F1 over a quantile grid.

    Candidates are up to 101 quantiles of all observed scores (deduplicated);
    ties resolve to the smallest threshold.
    """
    if not validation:
        raise ValueError("validation set is empty")
    pooled = [s.score for scored, _ in validation for s in scored]
    if not pooled:
        raise ValueError("no sentence scores in the validation set")
    ref_tokens = [
        list(chain.from_iterable(sent.tokens for sent in refs)) for _, refs in validation
    ]
    tokens_by_text = [_tokens_by_text(scored, mask_deid) for scored, _ in validation]
    thresholds = _quantile_grid(pooled)
    means = []
    for threshold in thresholds:
        per_instance = []
        for (scored, _), ref, by_text in zip(validation, ref_tokens, tokens_by_text):
            kept = apply_cutoff(scored, threshold)
            if by_text is None:
                candidate = tokenize(summary_text(kept), mask_deid=mask_deid)
            else:
                candidate = list(chain.from_iterable(by_text[s.text] for s in kept))
            per_instance.append(rouge_l(candidate, ref).f1)
        means.append(fmean(per_instance))
    best = 0
    for i in range(1, len(thresholds)):
        if means[i] > means[best]:
            best = i
    return ThresholdSweepResult(tuple(thresholds), tuple(means), thresholds[best])


def read_segments(path: str | Path) -> list[Segment]:
    """The segments of a segment file, in file order; a repeated segment_id is fatal."""
    return list(read_jsonl_keyed(path, _keyed_segment, "segment_id").values())


def _keyed_segment(record) -> tuple[str, Segment]:
    segment = Segment.from_record(record)
    return segment.segment_id, segment


def read_scores(path: str | Path) -> dict[str, list[ScoredSentence]]:
    """Map segment_id -> its scored sentences (empty texts) from a score file.

    A repeated segment_id, or a sentence key repeated within one row, is fatal.
    """
    return read_jsonl_keyed(path, _score_row, "segment_id")


def read_merged(path: str | Path) -> dict[str, list[ScoredSentence]]:
    """Map encounter_id -> its scored sentences in source order from a merged-scores file.

    A repeated encounter_id, or a sentence key repeated within one row, is fatal.
    """
    return read_jsonl_keyed(path, _merged_row, "encounter_id")


def read_sweep_threshold(path: str | Path) -> float:
    """The ``chosen_threshold`` of a sweep-result file.

    Anything but a JSON object holding a finite number there is a ValueError
    naming the file.
    """
    try:
        record = json.loads(Path(path).read_text("utf-8"))
        check_fields(record, "a sweep-result", ())
        return check_finite(record.get("chosen_threshold"), "'chosen_threshold'")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _score_row(record) -> tuple[str, list[ScoredSentence]]:
    return _scored_row(record, "a scores", "segment_id", "scores", _SENTENCE_KEY_FIELDS)


def _merged_row(record) -> tuple[str, list[ScoredSentence]]:
    return _scored_row(
        record, "a merged-scores", "encounter_id", "sentences", _SENTENCE_TEXT_FIELDS
    )


def _scored_row(
    record, kind: str, id_field: str, list_field: str, sentence_fields
) -> tuple[str, list[ScoredSentence]]:
    check_fields(record, kind, ((id_field, str), (list_field, list)))
    owner = f"{id_field.removesuffix('_id')} {record[id_field]}"
    scored: list[ScoredSentence] = []
    seen: set[tuple[int, int]] = set()
    for i, item in enumerate(record[list_field]):
        where = f"{owner}, {list_field}[{i}]"
        check_fields(item, kind, sentence_fields, where)
        try:
            sentence = ScoredSentence.from_record(item)
        except ValueError as exc:
            raise ValueError(f"not {kind} record: {where}: {exc}") from None
        if sentence.key in seen:
            raise ValueError(f"not {kind} record: {owner}: sentence {sentence.key} repeated")
        seen.add(sentence.key)
        scored.append(sentence)
    return record[id_field], scored


def write_segments(
    dataset_dir: str | Path, split: str, max_tokens: int, out: str | Path, mask_deid: bool = False
) -> int:
    """Chunk each encounter of one split into a segment file; returns the segment count.

    An encounter whose subject has no record in ``splits.jsonl`` is fatal.
    """
    encounters = load_encounters(dataset_dir)
    splits = load_splits(dataset_dir)
    cfg = ChunkConfig(max_tokens=max_tokens)
    rows = []
    for encounter_id in sorted(encounters):
        subject_id = encounters[encounter_id].subject_id
        if subject_id not in splits:
            raise ValueError(
                f"{Path(dataset_dir) / 'splits.jsonl'}: no split record for subject "
                f"{subject_id!r} of encounter {encounter_id!r}"
            )
        if splits[subject_id] != split:
            continue
        pool = source_sentences(encounters[encounter_id], mask_deid=mask_deid)
        rows.extend(segment.to_record() for segment in chunk_encounter(pool, cfg, encounter_id))
    write_jsonl(out, rows)
    return len(rows)


def write_merged_scores(
    segments_path: str | Path, scores_path: str | Path, out: str | Path
) -> int:
    """Merge a score file over its segment file into a merged-scores file,
    one record per encounter; returns the encounter count.

    A score row for a segment the segment file lacks is fatal, as is a
    segment without a complete score row (``merge_scores``).
    """
    segments = read_segments(segments_path)
    per_segment = read_scores(scores_path)
    by_encounter: dict[str, list[Segment]] = {}
    for segment in segments:
        by_encounter.setdefault(segment.encounter_id, []).append(segment)
    orphans = per_segment.keys() - {segment.segment_id for segment in segments}
    if orphans:
        raise ValueError(
            f"{scores_path}: score row for segment {min(orphans)!r}, "
            f"which {segments_path} does not hold"
        )
    rows = []
    for encounter_id in sorted(by_encounter):
        merged = merge_scores(by_encounter[encounter_id], per_segment)
        rows.append({"encounter_id": encounter_id, "sentences": [s.to_record() for s in merged]})
    write_jsonl(out, rows)
    return len(rows)


def write_sweep(
    dataset_dir: str | Path, section: SectionName, split: str, merged_path: str | Path,
    out: str | Path, mask_deid: bool = False,
) -> ThresholdSweepResult:
    """Sweep the cutoff over the section's instances in ``split`` that have
    merged scores and write the sweep-result file; an instance without scores
    is skipped with a warning."""
    merged = read_merged(merged_path)
    validation = []
    for instance in load_section_instances(dataset_dir, section, split):
        scored = merged.get(instance.encounter_id)
        if scored is None:
            logger.warning("no scores for encounter %s; skipping", instance.encounter_id)
            continue
        validation.append((scored, split_sentences(instance.reference_text, mask_deid=mask_deid)))
    if not validation:
        raise ValueError("no validation instances with scores to sweep")
    result = sweep_threshold(validation, mask_deid=mask_deid)
    write_json(out, result.to_record(section))
    return result


def write_cutoff_summaries(
    merged_path: str | Path, section: SectionName, system: str, threshold: float,
    out: str | Path,
) -> int:
    """Write one summary per merged encounter, the sentences scoring at or
    above ``threshold``; returns the summary count."""
    merged = read_merged(merged_path)
    rows = [
        summary_record(encounter_id, section, system, summary_text(apply_cutoff(scored, threshold)))
        for encounter_id, scored in sorted(merged.items())
    ]
    write_jsonl(out, rows)
    return len(rows)
