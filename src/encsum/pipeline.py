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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from statistics import fmean
from typing import Mapping, Sequence

from .rouge import rouge_l
from .textproc import Sentence, normalize, tokenize

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


@dataclass(frozen=True)
class ScoredSentence:
    key: tuple[int, int]
    score: float
    text: str


@dataclass(frozen=True)
class ThresholdSweepResult:
    thresholds: tuple[float, ...]
    mean_scores: tuple[float, ...]
    chosen_threshold: float

    def to_record(self) -> dict:
        return {
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
            surfaces = sent.surfaces
            for w in range(0, n, cfg.max_tokens):
                window = surfaces[w:w + cfg.max_tokens]
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


def _surfaces_by_text(
    scored: Sequence[ScoredSentence], mask_deid: bool
) -> dict[str, list[str]] | None:
    """Token surfaces of each distinct sentence text, tokenised once.

    A candidate summary's tokens are then its kept sentences' surfaces
    concatenated, which equals tokenising their ``"\\n"`` join unless a
    de-identification placeholder spans a join. That needs a text whose last
    bracket is an unclosed ``[``, as when "Seen by [ Dr. Smith ] today." is
    segmented after "Dr."; for such an instance (masking only) this returns
    None and the joined text is tokenised instead.
    """
    texts = dict.fromkeys(s.text for s in scored)
    if mask_deid and any(t.rfind("[") > t.rfind("]") for t in texts):
        return None
    return {t: [tok.surface for tok in tokenize(t, mask_deid=mask_deid)] for t in texts}


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
        [surface for sent in refs for surface in sent.surfaces]
        for _, refs in validation
    ]
    surfaces = [_surfaces_by_text(scored, mask_deid) for scored, _ in validation]
    thresholds = _quantile_grid(pooled)
    means = []
    for threshold in thresholds:
        per_instance = []
        for (scored, _), ref, by_text in zip(validation, ref_tokens, surfaces):
            kept = apply_cutoff(scored, threshold)
            if by_text is None:
                candidate = [
                    t.surface for t in tokenize(summary_text(kept), mask_deid=mask_deid)
                ]
            else:
                candidate = list(chain.from_iterable(by_text[s.text] for s in kept))
            per_instance.append(rouge_l(candidate, ref).f1)
        means.append(fmean(per_instance))
    best = 0
    for i in range(1, len(thresholds)):
        if means[i] > means[best]:
            best = i
    return ThresholdSweepResult(tuple(thresholds), tuple(means), thresholds[best])
