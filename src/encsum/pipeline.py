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
* ``apply_cutoff`` turns scored sentences into a deduplicated extractive
  summary.

This module owns the segment, score, merged-score and sweep-result files:
each is built and parsed only here, and the ``write_*`` functions run the
``chunk``, ``merge-scores``, ``sweep`` and ``cutoff`` commands on them.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from statistics import fmean
from typing import Mapping, Sequence

from .corpus import check_fields, check_finite, named_few, source_sentences
from .dataset import load_encounters, load_section_instances, section_file, summary_record
from .jsonl import parse_json, read_jsonl_keyed, read_text, write_json, write_jsonl
from .rouge import LcsPool, prf
from .sections import SectionName
from .textproc import Sentence, normalize, tokenize

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

    def to_record(self) -> dict:
        return {
            "segment_id": self.segment_id,
            "encounter_id": self.encounter_id,
            "sentences": [
                {"doc": d, "sent": s, "text": t}
                for (d, s), t in zip(self.sentences, self.texts)
            ],
        }


@dataclass(frozen=True)
class ScoredSentence:
    key: tuple[int, int]
    score: float
    text: str

    @property
    def dedup_key(self) -> str:
        """What ``apply_cutoff`` compares: the text, lowercased, whitespace collapsed."""
        return normalize(self.text)

    def to_record(self) -> dict:
        """The sentence record of a merged-scores file."""
        return {"doc": self.key[0], "sent": self.key[1], "score": self.score, "text": self.text}


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
    budget = cfg.max_tokens
    pieces: list[list[tuple[tuple[int, int], str]]] = []  # each segment's (key, text) pairs
    filled = math.inf  # tokens in pieces[-1]; inf when it takes no more sentences
    for sent in source_sents:
        n = len(sent.tokens)
        if n > budget:
            pieces += (
                [(sent.key, " ".join(sent.tokens[w:w + budget]))] for w in range(0, n, budget)
            )
            filled = math.inf
        elif filled + n > budget:
            pieces.append([(sent.key, sent.raw_text)])
            filled = n
        else:
            pieces[-1].append((sent.key, sent.raw_text))
            filled += n
    return [
        Segment(f"{encounter_id}/{i}", encounter_id, *zip(*piece)) for i, piece in enumerate(pieces)
    ]


def _check_covers(segment: Segment, scores: Mapping[tuple[int, int], float]) -> None:
    """A segment's scores must be over exactly its sentence keys."""
    expected = set(segment.sentences)
    if scores.keys() != expected:
        raise ValueError(
            f"score list for segment {segment.segment_id} does not cover its sentences "
            f"(missing {sorted(expected - scores.keys())}, "
            f"extra {sorted(scores.keys() - expected)})"
        )


def merge_scores(
    segments: Sequence[Segment],
    per_segment_scores: Mapping[str, Mapping[tuple[int, int], float]],
) -> list[ScoredSentence]:
    """Reassemble per-segment scores into one list in source order.

    ``per_segment_scores`` maps a segment_id to its scores by sentence key, as
    ``read_scores`` returns them. Every segment must be scored over exactly
    its own sentence keys. A sentence split across windows gets the max of
    its window scores, and its text is the windows' texts rejoined in order.
    """
    merged_score: dict[tuple[int, int], float] = {}
    merged_text: dict[tuple[int, int], list[str]] = {}
    for segment in segments:
        scores = per_segment_scores.get(segment.segment_id)
        if scores is None:
            raise ValueError(f"no score list for segment {segment.segment_id}")
        _check_covers(segment, scores)
        for key, text in zip(segment.sentences, segment.texts):
            score = scores[key]
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


def summary_text(sentences: Sequence[ScoredSentence]) -> str:
    return "\n".join(s.text for s in sentences)


def apply_cutoff(scored: Sequence[ScoredSentence], threshold: float) -> list[ScoredSentence]:
    """Keep sentences scoring at or above ``threshold``, in order, less each
    whose ``dedup_key`` an earlier kept sentence has."""
    seen: set[str] = set()
    out = []
    for sent in scored:
        if sent.score >= threshold:
            key = sent.dedup_key
            if key not in seen:
                seen.add(key)
                out.append(sent)
    return out


def _quantile_grid(scores: Sequence[float]) -> list[float]:
    """Up to 101 distinct quantiles of finite ``scores``, ascending, each
    finite and within [min, max] of ``scores``."""
    ordered = sorted(scores)
    m = len(ordered)
    n = MAX_THRESHOLD_CANDIDATES
    grid = []
    for k in range(n):
        pos = (k / (n - 1)) * (m - 1)
        lo = int(pos)
        a, b = ordered[lo], ordered[min(lo + 1, m - 1)]
        f = pos - lo
        if math.isfinite(b - a):
            point = a + (b - a) * f
        else:
            # b - a overflows only when a < 0 < b, and then this sum cannot.
            point = a * (1 - f) + b * f
        grid.append(min(max(point, a), b))
    return sorted(set(grid))


def _keep_intervals(
    scored: Sequence[ScoredSentence], thresholds: Sequence[float]
) -> list[tuple[int, int]]:
    """For each sentence, the range [a, b) of the indices of the ascending
    ``thresholds`` at which ``apply_cutoff`` keeps it.

    A sentence is kept at t when its score is at least t and no earlier
    sentence with its ``dedup_key`` scores at least t: for t above the
    highest earlier score of its key, up to its own score.
    """
    dedup_keys: dict[str, str] = {}  # each distinct text is normalised once
    highest: dict[str, float] = {}
    intervals = []
    for sent in scored:
        if sent.text not in dedup_keys:
            dedup_keys[sent.text] = sent.dedup_key
        key = dedup_keys[sent.text]
        earlier = highest.get(key)
        a = 0 if earlier is None else bisect_right(thresholds, earlier)
        intervals.append((a, bisect_right(thresholds, sent.score)))
        if earlier is None or sent.score > earlier:
            highest[key] = sent.score
    return intervals


def _rouge_l_f1s(
    scored: Sequence[ScoredSentence], reference: Sequence[str], thresholds: Sequence[float],
    mask_deid: bool,
) -> list[float]:
    """ROUGE-L F1 of the summary that cuts off at each of the ascending
    ``thresholds``, from one LCS pass.

    The pool holds one copy of the reference per threshold, its lane. A
    candidate's tokens are its kept sentences' tokens concatenated, so each
    sentence's tokens are queried once, masked to the lanes that keep it.
    That equals tokenising the kept sentences' ``"\\n"`` join unless a
    de-identification placeholder spans a join. That needs a text whose last
    bracket is an unclosed ``[``, as when "Seen by [ Dr. Smith ] today." is
    segmented after "Dr."; for such an instance (masking only) each lane's
    joined text is tokenised and queried instead, masked to its lane.
    """
    lanes = len(thresholds)
    pool = LcsPool.tiled(reference, lanes)
    intervals = _keep_intervals(scored, thresholds)

    def encode(text: str) -> tuple[int, list[int]]:
        tokens = tokenize(text, mask_deid=mask_deid)
        return len(tokens), pool.masks_of(tokens)

    texts = dict.fromkeys(s.text for s in scored)
    if mask_deid and any(t.rfind("[") > t.rfind("]") for t in texts):
        runs = []
        for lane in range(lanes):
            kept = [s for s, (a, b) in zip(scored, intervals) if a <= lane < b]
            runs.append((lane, lane + 1, *encode(summary_text(kept))))
    else:
        encoded = {text: encode(text) for text in texts}
        runs = [(a, b, *encoded[s.text]) for s, (a, b) in zip(scored, intervals) if a < b]
    # Kept lengths by lane, as a difference array; and the one query.
    lengths = [0] * (lanes + 1)
    query: list[int] = []
    for a, b, length, masks in runs:
        lengths[a] += length
        lengths[b] -= length
        window = pool.window(a, b)
        query += [mask & window for mask in masks]
    return [
        prf(lcs, length, len(reference))[2]
        for lcs, length in zip(pool.lcs(query), accumulate(lengths))
    ]


def sweep_threshold(
    validation: Sequence[tuple[Sequence[ScoredSentence], Sequence[str]]],
    mask_deid: bool = False,
) -> dict:
    """Pick the cutoff maximizing mean validation ROUGE-L F1 over a quantile grid.

    ``validation`` holds (scored sentences, reference tokens) pairs, the
    reference tokenised as ``evaluate`` tokenises it. Candidates are up to 101
    quantiles of all observed scores (deduplicated); ties resolve to the
    smallest threshold. Returns the sweep-result record but its ``section``:
    ``thresholds`` in ascending order, ``mean_rouge_l_f1`` at each, and
    ``chosen_threshold``.
    """
    if not validation:
        raise ValueError("no instance with scores to sweep")
    pooled = [s.score for scored, _ in validation for s in scored]
    if not pooled:
        raise ValueError("no sentence scores to sweep")
    thresholds = _quantile_grid(pooled)
    per_instance = [_rouge_l_f1s(scored, ref, thresholds, mask_deid) for scored, ref in validation]
    means = [fmean(f1s) for f1s in zip(*per_instance)]
    return {
        "thresholds": thresholds,
        "mean_rouge_l_f1": means,
        "chosen_threshold": thresholds[means.index(max(means))],
    }


def read_segments(path: str | Path) -> dict[str, Segment]:
    """Map segment_id -> segment, in file order, from a segment file; a
    repeated segment_id is fatal."""
    return read_jsonl_keyed(path, _segment_row, "segment_id")


def read_scores(
    path: str | Path, segments: Mapping[str, Segment], segments_path: str | Path
) -> dict[str, dict[tuple[int, int], float]]:
    """Map segment_id -> its scores by sentence key, in file order, from a
    score file over ``segments``, the map ``read_segments`` made of
    ``segments_path``.

    A row for a segment not in ``segments``, a row that does not score
    exactly its segment's sentences, a repeated segment_id, or a sentence key
    repeated within one row, is fatal with ``<path>:<line>``.
    """

    def row(record) -> tuple[str, dict[tuple[int, int], float]]:
        segment_id, sentences = _sentence_list(
            record, "a scores", "segment_id", "scores", _KEY_FIELDS
        )
        if segment_id not in segments:
            raise ValueError(
                f"score row for segment {segment_id!r}, which {segments_path} does not hold"
            )
        scores = {key: s["score"] for key, s in sentences.items()}
        _check_covers(segments[segment_id], scores)
        return segment_id, scores

    return read_jsonl_keyed(path, row, "segment_id")


def read_merged(path: str | Path) -> dict[str, list[ScoredSentence]]:
    """Map encounter_id -> its scored sentences in source order from a merged-scores file.

    A repeated encounter_id, or a sentence key repeated within one row, is fatal.
    """
    return read_jsonl_keyed(path, _merged_row, "encounter_id")


def read_sweep_threshold(path: str | Path, section: SectionName) -> float:
    """The ``chosen_threshold`` of a sweep-result file for ``section``.

    Anything but a JSON object holding a finite number there and
    ``section``'s name as its ``section``, or a file that ``read_text`` or
    ``parse_json`` rejects, is a ValueError naming the file.
    """
    try:
        record = parse_json(read_text(path))
        check_fields(record, "a sweep-result", ())
        threshold = check_finite(record.get("chosen_threshold"), "'chosen_threshold'")
        if record.get("section") != section.value:
            raise ValueError(
                f"a sweep for section {record.get('section')!r}, not {section.value!r}"
            )
        return threshold
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_KEY_FIELDS = (("doc", int), ("sent", int))
_TEXT_FIELDS = (*_KEY_FIELDS, ("text", str))


def _segment_row(record) -> tuple[str, Segment]:
    segment_id, sentences = _sentence_list(
        record, "a segment", "segment_id", "sentences", _TEXT_FIELDS,
        scored=False, row_fields=(("encounter_id", str),),
    )
    texts = tuple(s["text"] for s in sentences.values())
    return segment_id, Segment(segment_id, record["encounter_id"], tuple(sentences), texts)


def _merged_row(record) -> tuple[str, list[ScoredSentence]]:
    encounter_id, sentences = _sentence_list(
        record, "a merged-scores", "encounter_id", "sentences", _TEXT_FIELDS
    )
    return encounter_id, [ScoredSentence(key, s["score"], s["text"]) for key, s in sentences.items()]


def _sentence_list(
    record, kind: str, id_field: str, list_field: str, sentence_fields,
    scored: bool = True, row_fields=(),
) -> tuple[str, dict[tuple[int, int], dict]]:
    """Check a segment, score or merged-scores row: its fields, then each
    sentence record's ``sentence_fields``, ``doc`` and ``sent`` of at least 0, a
    finite ``score`` when ``scored``, and a key new to the row. Returns the id
    and the sentence records by key, in file order."""
    check_fields(record, kind, ((id_field, str), *row_fields, (list_field, list)))
    owner = f"{id_field.removesuffix('_id')} {record[id_field]}"
    sentences: dict[tuple[int, int], dict] = {}
    # Each message says where the sentence is; it is built only once a check fails.
    for i, item in enumerate(record[list_field]):
        try:
            check_fields(item, kind, sentence_fields)
        except ValueError:
            check_fields(item, kind, sentence_fields, f"{owner}, {list_field}[{i}]")
        key = (item["doc"], item["sent"])
        try:
            if key[0] < 0 or key[1] < 0:
                raise ValueError("doc and sent must be at least 0")
            if scored:
                check_finite(item.get("score"), "score")
        except ValueError as exc:
            where = f"{owner}, {list_field}[{i}]: sentence {key}"
            raise ValueError(f"not {kind} record: {where}: {exc}") from None
        if key in sentences:
            raise ValueError(f"not {kind} record: {owner}: sentence {key} repeated")
        sentences[key] = item
    return record[id_field], sentences


def write_segments(
    dataset_dir: str | Path, split: str, max_tokens: int, out: str | Path, mask_deid: bool = False
) -> int:
    """Chunk each encounter of one split into a segment file; returns the segment count.

    The segments are written encounter by encounter as they are made, and a
    fatal error leaves the file at ``out`` as it was.
    """
    encounters = load_encounters(dataset_dir, split)
    cfg = ChunkConfig(max_tokens=max_tokens)

    def rows():
        for encounter_id in sorted(encounters):
            pool = source_sentences(encounters[encounter_id], mask_deid=mask_deid)
            for segment in chunk_encounter(pool, cfg, encounter_id):
                yield segment.to_record()

    return write_jsonl(out, rows())


def write_merged_scores(
    segments_path: str | Path, scores_path: str | Path, out: str | Path
) -> int:
    """Merge a score file over its segment file into a merged-scores file,
    one record per encounter, written as each is merged; returns the
    encounter count.

    A score row for a segment the segment file lacks, or one that does not
    score exactly its segment's sentences, is fatal with the score file and
    the row's line; a segment without a score row is fatal with the score
    file (``merge_scores``). A fatal error leaves the file at ``out`` as it
    was.
    """
    segments = read_segments(segments_path)
    per_segment = read_scores(scores_path, segments, segments_path)
    by_encounter: dict[str, list[Segment]] = {}
    for segment in segments.values():
        by_encounter.setdefault(segment.encounter_id, []).append(segment)

    def rows():
        for encounter_id in sorted(by_encounter):
            try:
                merged = merge_scores(by_encounter[encounter_id], per_segment)
            except ValueError as exc:
                raise ValueError(f"{scores_path}: {exc}") from None
            yield {"encounter_id": encounter_id, "sentences": [s.to_record() for s in merged]}

    return write_jsonl(out, rows())


def write_sweep(
    dataset_dir: str | Path, section: SectionName, split: str, merged_path: str | Path,
    out: str | Path, mask_deid: bool = False,
) -> dict:
    """Sweep the cutoff over the section's instances in ``split`` that have
    merged scores, and write and return the sweep-result record: the
    ``sweep_threshold`` record with ``section`` added. The instances without
    scores are skipped with one warning that counts them."""
    merged = read_merged(merged_path)
    instances = load_section_instances(dataset_dir, section, split)
    validation = [
        (merged[i.encounter_id], tokenize(i.reference_text, mask_deid=mask_deid))
        for i in instances if i.encounter_id in merged
    ]
    path = section_file(dataset_dir, section, split)
    where = f"{split} instances of section {section.value!r} in {path}"
    unscored = [i.encounter_id for i in instances if i.encounter_id not in merged]
    if unscored:
        logger.warning(
            "%d of %d %s have no scores in %s; skipped: %s",
            len(unscored), len(instances), where, merged_path, named_few(unscored),
        )
    try:
        record = {"section": section.value, **sweep_threshold(validation, mask_deid=mask_deid)}
    except ValueError as exc:
        raise ValueError(
            f"{exc}, from the {where} and the merged scores in {merged_path}"
        ) from None
    write_json(out, record)
    return record


def write_cutoff_summaries(
    merged_path: str | Path, section: SectionName, system: str, threshold: float,
    out: str | Path,
) -> int:
    """Write one summary per merged encounter, the sentences scoring at or
    above ``threshold``, each as it is made; returns the summary count."""
    merged = read_merged(merged_path)
    return write_jsonl(out, (
        summary_record(encounter_id, section, system, summary_text(apply_cutoff(scored, threshold)))
        for encounter_id, scored in sorted(merged.items())
    ))
