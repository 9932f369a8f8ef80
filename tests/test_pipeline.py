import logging
import math
import sys
from statistics import fmean

import pytest
from hypothesis import example, given, strategies as st

from encsum.pipeline import (
    ChunkConfig,
    ScoredSentence,
    Segment,
    _keep_intervals,
    _quantile_grid,
    apply_cutoff,
    chunk_encounter,
    merge_scores,
    read_segments,
    summary_text,
    sweep_threshold,
    write_sweep,
)
from encsum.jsonl import write_jsonl
from encsum.rouge import rouge_l
from encsum.sections import SectionName
from encsum.textproc import tokenize
from tests.conftest import make_sentence


def segment_token_count(segment):
    return sum(len(tokenize(text)) for text in segment.texts)


def _sent_of_tokens(n_tokens, doc=0, idx=0, word="tok"):
    return make_sentence(" ".join(f"{word}{k}" for k in range(n_tokens)), doc, idx)


class TestChunk:
    def test_greedy_fill_hand_trace(self):
        sents = [_sent_of_tokens(300, 0, i) for i in range(5)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=1024))
        assert [len(s.sentences) for s in segments] == [3, 2]
        assert [segment_token_count(s) for s in segments] == [900, 600]

    def test_empty(self):
        assert chunk_encounter([], ChunkConfig()) == []

    def test_oversize_sentence_windowed(self):
        sents = [_sent_of_tokens(2000, 0, 0)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=1024))
        assert [segment_token_count(s) for s in segments] == [1024, 976]
        assert all(s.sentences == ((0, 0),) for s in segments)

    def test_windows_preserve_tokens(self):
        sent = _sent_of_tokens(2500, 0, 0)
        segments = chunk_encounter([sent], ChunkConfig(max_tokens=1024))
        rejoined = " ".join(s.texts[0] for s in segments)
        assert rejoined.split() == list(sent.tokens)

    def test_order_preserved_across_segments(self):
        sents = [_sent_of_tokens(10, d, i) for d in range(3) for i in range(20)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=64))
        flattened = [key for seg in segments for key in seg.sentences]
        assert flattened == [s.key for s in sents]

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ChunkConfig(max_tokens=0)

    @given(st.lists(st.integers(1, 40), max_size=60), st.integers(8, 64))
    def test_budget_respected(self, lengths, budget):
        sents = [_sent_of_tokens(n, 0, i) for i, n in enumerate(lengths)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=budget))
        for segment in segments:
            assert segment_token_count(segment) <= budget


def reference_chunk_encounter(source_sents, cfg, encounter_id=""):
    """The chunker as it was before it built every segment in one place."""
    segments = []
    current = []
    current_tokens = 0

    def flush():
        nonlocal current, current_tokens
        if current:
            segments.append(
                Segment(
                    segment_id=f"{encounter_id}/{len(segments)}",
                    encounter_id=encounter_id,
                    sentences=tuple(s.key for s in current),
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


class TestChunkExact:
    """The whole segment list, ids included, against the reference chunker."""

    @given(st.lists(st.integers(1, 80), max_size=40), st.integers(1, 64))
    # An oversize sentence right after a partly filled segment; exact fills,
    # then one more token; an empty pool; a budget of one token.
    @example([3, 20, 2], 8)
    @example([4, 4, 8, 1, 7, 9], 8)
    @example([], 5)
    @example([1, 2, 1], 1)
    def test_equals_reference(self, lengths, budget):
        sents = [_sent_of_tokens(n, i % 3, i) for i, n in enumerate(lengths)]
        cfg = ChunkConfig(max_tokens=budget)
        segments = chunk_encounter(sents, cfg, "enc-7")
        assert segments == reference_chunk_encounter(sents, cfg, "enc-7")
        assert [s.segment_id for s in segments] == [f"enc-7/{i}" for i in range(len(segments))]
        # Greedy fill is maximal: a filled segment could not take the
        # sentence that starts the next one.
        sizes = {s.key: n for s, n in zip(sents, lengths)}
        for segment, after in zip(segments, segments[1:]):
            if sizes[segment.sentences[-1]] <= budget and sizes[after.sentences[0]] <= budget:
                filled = sum(sizes[key] for key in segment.sentences)
                assert filled <= budget < filled + sizes[after.sentences[0]]


def _identity_scores(segments):
    return {seg.segment_id: {key: 1.0 for key in seg.sentences} for seg in segments}


def test_segment_file_round_trip(tmp_path):
    sents = [_sent_of_tokens(n, 0, i) for i, n in enumerate((5, 40, 3, 9))]
    segments = chunk_encounter(sents, ChunkConfig(max_tokens=16), "e1")
    assert any(len(s.texts) > 1 for s in segments)  # some filled, some windowed
    path = tmp_path / "segments.jsonl"
    write_jsonl(path, (s.to_record() for s in segments))
    assert read_segments(path) == {s.segment_id: s for s in segments}


class TestMerge:
    def test_round_trip_source_order(self):
        sents = [_sent_of_tokens(12, d, i) for d in range(2) for i in range(10)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=50), "e1")
        merged = merge_scores(segments, _identity_scores(segments))
        assert [s.key for s in merged] == [s.key for s in sents]

    def test_windowed_sentence_takes_max(self):
        sents = [_sent_of_tokens(30, 0, 0)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=16), "e1")
        assert len(segments) == 2
        scores = {
            segments[0].segment_id: {(0, 0): 0.2},
            segments[1].segment_id: {(0, 0): 0.7},
        }
        merged = merge_scores(segments, scores)
        assert len(merged) == 1
        assert merged[0].score == 0.7
        assert merged[0].text.split() == list(sents[0].tokens)

    def test_missing_key_fatal(self):
        sents = [_sent_of_tokens(4, 0, 0), _sent_of_tokens(4, 0, 1)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=100), "e1")
        scores = {segments[0].segment_id: {(0, 0): 0.5}}
        with pytest.raises(ValueError, match="e1/0"):
            merge_scores(segments, scores)

    def test_extra_key_fatal(self):
        sents = [_sent_of_tokens(4, 0, 0)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=100), "e1")
        scores = {segments[0].segment_id: {(0, 0): 0.5, (9, 9): 0.5}}
        with pytest.raises(ValueError):
            merge_scores(segments, scores)

    def test_missing_segment_fatal(self):
        sents = [_sent_of_tokens(4, 0, 0)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=100), "e1")
        with pytest.raises(ValueError):
            merge_scores(segments, {})


def dedup(items):
    """The dedup half of ``apply_cutoff``: a cutoff below every score."""
    return apply_cutoff(items, float("-inf"))


class TestPostprocess:
    def test_normalized_dedup(self):
        kept = dedup(
            [
                ScoredSentence((0, 0), 1.0, "a b"),
                ScoredSentence((0, 1), 1.0, "a  B"),
                ScoredSentence((0, 2), 1.0, "c"),
            ]
        )
        assert [s.text for s in kept] == ["a b", "c"]

    def test_unique_unchanged(self):
        items = [ScoredSentence((0, i), 1.0, f"s{i}") for i in range(4)]
        assert dedup(items) == items

    def test_empty(self):
        assert dedup([]) == []
        assert summary_text([]) == ""

    @given(st.lists(st.sampled_from(["a b", "A  b", "c", "d e", "D E "]), max_size=12))
    def test_idempotent(self, texts):
        items = [ScoredSentence((0, i), 0.5, t) for i, t in enumerate(texts)]
        once = dedup(items)
        assert dedup(once) == once


class TestApplyCutoff:
    def _scored(self):
        return [
            ScoredSentence((0, 0), 0.1, "low"),
            ScoredSentence((0, 1), 0.5, "mid"),
            ScoredSentence((0, 2), 0.9, "high"),
        ]

    def test_above_max_empty(self):
        assert apply_cutoff(self._scored(), 0.95) == []

    def test_below_min_keeps_all(self):
        assert [s.text for s in apply_cutoff(self._scored(), 0.0)] == ["low", "mid", "high"]

    def test_exact_subset(self):
        assert [s.text for s in apply_cutoff(self._scored(), 0.5)] == ["mid", "high"]

    def test_threshold_inclusive(self):
        assert [s.text for s in apply_cutoff(self._scored(), 0.9)] == ["high"]

    @given(st.lists(st.floats(0, 1, allow_nan=False), max_size=10), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_threshold(self, scores, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        scored = [ScoredSentence((0, i), v, f"s{i}") for i, v in enumerate(scores)]
        kept_hi = {s.key for s in apply_cutoff(scored, hi)}
        kept_lo = {s.key for s in apply_cutoff(scored, lo)}
        assert kept_hi <= kept_lo


def _sweep_instance(sent_scores, reference_text):
    scored = [
        ScoredSentence((0, i), score, text) for i, (text, score) in enumerate(sent_scores)
    ]
    return scored, tokenize(reference_text)


def reevaluate_grid(validation, thresholds, mask_deid=False):
    """Independent re-evaluation of every candidate threshold.

    Each candidate summary is joined and tokenised afresh, as the sweep did
    before it tokenised each sentence once.
    """
    means = []
    for t in thresholds:
        per = []
        for scored, ref in validation:
            kept = apply_cutoff(scored, t)
            cand = tokenize(summary_text(kept), mask_deid=mask_deid)
            per.append(rouge_l(cand, ref).f1)
        means.append(fmean(per))
    return means


# Words that exercise dedup (case), punctuation peeling and de-identification
# placeholders, including brackets left dangling by sentence segmentation.
_SWEEP_WORDS = [
    "a", "B", "b", "pain", "Dr.", "[", "]", "[ Dr.", "Smith 12 ]", "[ x ]", "x]", "[y", "**",
]
_sweep_text = st.lists(st.sampled_from(_SWEEP_WORDS), min_size=1, max_size=6).map(" ".join)
# Scores on a coarse grid often equal a threshold, which tests the inclusive
# cutoff; free floats make enough distinct scores that the quantile grid
# interpolates between them, up to its 101 points.
_sweep_score = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0, 1))
# Texts drawn from a few per instance, so a later duplicate (the same text or
# the same dedup key) often scores higher or lower than an earlier one.
_sweep_sentences = st.lists(_sweep_text, min_size=1, max_size=3).flatmap(
    lambda texts: st.lists(
        st.tuples(st.one_of(st.sampled_from(texts), _sweep_text), _sweep_score),
        min_size=1, max_size=8,
    )
)
_sweep_instances = st.lists(
    st.tuples(_sweep_sentences, st.one_of(st.just(""), _sweep_text)),
    min_size=1,
    max_size=4,
)


class TestSweep:
    def test_separating_threshold_chosen(self):
        validation = [
            _sweep_instance([("chest pain today.", 0.9), ("noise words here.", 0.2)],
                            "chest pain today."),
            _sweep_instance([("no fever seen.", 0.8), ("other noise text.", 0.1)],
                            "no fever seen."),
        ]
        result = sweep_threshold(validation)
        assert 0.2 < result["chosen_threshold"] <= 0.8

    def test_all_matching_ties_resolve_to_smallest(self):
        validation = [
            _sweep_instance([("same text.", 0.3), ("same text.", 0.7)], "same text."),
        ]
        result = sweep_threshold(validation)
        assert result["chosen_threshold"] == min(result["thresholds"])

    def test_single_instance_two_sentences(self):
        validation = [
            _sweep_instance([("the right answer.", 0.75), ("wrong thing entirely.", 0.25)],
                            "the right answer.")
        ]
        result = sweep_threshold(validation)
        means = reevaluate_grid(validation, result["thresholds"])
        best = max(means)
        assert means[result["thresholds"].index(result["chosen_threshold"])] == best
        assert result["chosen_threshold"] > 0.25

    def test_chosen_attains_grid_maximum(self, rng):
        validation = []
        for _ in range(6):
            sent_scores = [
                (" ".join(rng.choice("abcd") for _ in range(4)) + ".", rng.random())
                for _ in range(8)
            ]
            validation.append(_sweep_instance(sent_scores, "a b c d."))
        result = sweep_threshold(validation)
        means = reevaluate_grid(validation, result["thresholds"])
        assert result["mean_rouge_l_f1"] == pytest.approx(means)
        chosen_mean = means[result["thresholds"].index(result["chosen_threshold"])]
        assert chosen_mean == max(means)
        # tie rule: nothing smaller achieves the same mean
        for t, m in zip(result["thresholds"], means):
            if m == chosen_mean:
                assert result["chosen_threshold"] <= t

    @given(_sweep_instances, st.booleans())
    @example(
        [([("Seen by [ Dr.", 0.5), ("Smith 12 ] today.", 0.5)], "seen by [ Dr. Smith 12 ] today")],
        True,
    )
    def test_equals_join_and_retokenise_reference(self, instances, mask_deid):
        validation = [
            (
                [ScoredSentence((0, i), score, text) for i, (text, score) in enumerate(sents)],
                tokenize(ref_text, mask_deid=mask_deid),
            )
            for sents, ref_text in instances
        ]
        result = sweep_threshold(validation, mask_deid=mask_deid)
        means = reevaluate_grid(validation, result["thresholds"], mask_deid=mask_deid)
        best = max(range(len(means)), key=lambda i: (means[i], -i))
        assert result == {
            "thresholds": result["thresholds"],
            "mean_rouge_l_f1": means,
            "chosen_threshold": result["thresholds"][best],
        }

    # The sweep used to score the tokens of the reference's sentences, and
    # "Dr." ends a sentence inside the placeholder, so it read 0.571 here.
    def test_reference_tokens_are_evaluates(self, tmp_path):
        reference = "Seen by [ Dr. Smith ] today."
        record = {"encounter_id": "e1", "section": "chief_complaint", "text": reference,
                  "start": 0, "end": len(reference)}
        write_jsonl(tmp_path / "data" / "sections" / "chief_complaint__validation.jsonl", [record])
        merged = tmp_path / "merged.jsonl"
        write_jsonl(merged, [{"encounter_id": "e1", "sentences": [
            {"doc": 0, "sent": 0, "score": 1.0, "text": reference},
        ]}])
        result = write_sweep(tmp_path / "data", SectionName.CHIEF_COMPLAINT, "validation", merged,
                             tmp_path / "sweep.json", mask_deid=True)
        tokens = tokenize(reference, mask_deid=True)
        assert rouge_l(tokens, tokens).f1 == 1.0
        assert max(result["mean_rouge_l_f1"]) == 1.0

    @staticmethod
    def _sweep_files(tmp_path, encounters, rows):
        """A test split of ``chief_complaint`` instances for ``encounters``,
        and a merged-scores file of ``rows``."""
        records = [{"encounter_id": enc, "section": "chief_complaint", "text": "fever.",
                    "start": 0, "end": 6} for enc in encounters]
        write_jsonl(tmp_path / "data" / "sections" / "chief_complaint__test.jsonl", records)
        write_jsonl(tmp_path / "merged.jsonl", rows)
        return tmp_path / "data", tmp_path / "merged.jsonl"

    # Both messages used to name no file, and the first said "validation"
    # whatever the split.
    @pytest.mark.parametrize("rows, problem", [
        ([{"encounter_id": "e9", "sentences": [
            {"doc": 0, "sent": 0, "score": 1.0, "text": "fever."}]}],
         "no instance with scores to sweep"),
        ([{"encounter_id": "e1", "sentences": []}], "no sentence scores to sweep"),
    ], ids=["no scored instance", "no sentence scores"])
    def test_nothing_to_sweep_names_section_split_and_files(self, tmp_path, rows, problem):
        data, merged = self._sweep_files(tmp_path, ["e1"], rows)
        with pytest.raises(ValueError) as caught:
            write_sweep(data, SectionName.CHIEF_COMPLAINT, "test", merged, tmp_path / "s.json")
        section_file = data / "sections" / "chief_complaint__test.jsonl"
        assert str(caught.value) == (
            f"{problem}, from the test instances of section 'chief_complaint' in"
            f" {section_file} and the merged scores in {merged}"
        )
        assert not (tmp_path / "s.json").exists()

    # Each instance without scores used to log a warning of its own.
    def test_unscored_instances_counted_in_one_warning(self, tmp_path, caplog):
        scored = {"encounter_id": "e3", "sentences": [
            {"doc": 0, "sent": 0, "score": 1.0, "text": "fever."}]}
        data, merged = self._sweep_files(tmp_path, [f"e{i}" for i in range(1, 6)], [scored])
        with caplog.at_level(logging.WARNING, logger="encsum"):
            write_sweep(data, SectionName.CHIEF_COMPLAINT, "test", merged, tmp_path / "s.json")
        section_file = data / "sections" / "chief_complaint__test.jsonl"
        assert [r.getMessage() for r in caplog.records] == [
            f"4 of 5 test instances of section 'chief_complaint' in {section_file} have no"
            f" scores in {merged}; skipped: 'e1', 'e2', 'e4', ..."
        ]

    @given(_sweep_instances)
    @example([([("a b", 0.25), ("A  b", 0.75), ("a b", 0.5), ("c", 0.5)], "")])
    def test_keep_intervals_equal_apply_cutoff(self, instances):
        validation = [
            [ScoredSentence((0, i), score, text) for i, (text, score) in enumerate(sents)]
            for sents, _ in instances
        ]
        thresholds = _quantile_grid([s.score for scored in validation for s in scored])
        for scored in validation:
            intervals = _keep_intervals(scored, thresholds)
            for lane, t in enumerate(thresholds):
                kept = [s for s, (a, b) in zip(scored, intervals) if a <= lane < b]
                assert kept == apply_cutoff(scored, t)

    # A later duplicate scoring higher and lower; an empty reference.
    @pytest.mark.parametrize("mask_deid", [False, True])
    @pytest.mark.parametrize("sent_scores, reference", [
        ([("a b", 0.25), ("A  b", 0.75), ("a b", 0.5), ("c [ x", 0.5), ("c", 1.0)], "a b c"),
        ([("a b", 0.5), ("c", 0.25)], ""),
    ], ids=["duplicates", "empty reference"])
    def test_duplicates_and_empty_reference(self, sent_scores, reference, mask_deid):
        validation = [_sweep_instance(sent_scores, reference)]
        result = sweep_threshold(validation, mask_deid=mask_deid)
        assert result["mean_rouge_l_f1"] == reevaluate_grid(
            validation, result["thresholds"], mask_deid=mask_deid
        )

    # The grid interpolated a + (b - a) * f, and b - a overflowed to inf
    # here: at f = 0 it made a NaN threshold, which the sweep chose.
    @pytest.mark.parametrize("scores", [
        (-1e308, 1e308),
        (-sys.float_info.max, sys.float_info.max),
        (sys.float_info.max / 3, sys.float_info.max),
        (-sys.float_info.max, -sys.float_info.max / 3),
    ])
    def test_overflowing_score_range(self, scores):
        grid = _quantile_grid(scores)
        assert grid == sorted(set(grid))
        assert all(math.isfinite(t) and min(scores) <= t <= max(scores) for t in grid)
        validation = [_sweep_instance([("a b.", scores[0]), ("c d.", scores[1])], "c d.")]
        result = sweep_threshold(validation)
        assert result["thresholds"] == grid
        # The smallest threshold that drops the low sentence.
        assert result["chosen_threshold"] == grid[1]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30))
    @example([-sys.float_info.max, 0.0, sys.float_info.max])
    def test_grid_finite_within_scores(self, scores):
        grid = _quantile_grid(scores)
        assert 1 <= len(grid) <= 101 and grid == sorted(set(grid))
        assert all(math.isfinite(t) and min(scores) <= t <= max(scores) for t in grid)

    # Where b - a is finite the grid is a + (b - a) * f, as it always was.
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=30))
    def test_grid_formula_kept(self, scores):
        ordered = sorted(scores)
        m = len(ordered)
        expected = set()
        for k in range(101):
            pos = (k / 100) * (m - 1)
            lo = int(pos)
            hi = min(lo + 1, m - 1)
            expected.add(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))
        assert _quantile_grid(scores) == sorted(expected)

    def test_empty_validation_fatal(self):
        with pytest.raises(ValueError):
            sweep_threshold([])

    def test_no_scores_fatal(self):
        with pytest.raises(ValueError):
            sweep_threshold([([], tokenize("x."))])
