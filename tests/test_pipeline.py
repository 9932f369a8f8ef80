from statistics import fmean

import pytest
from hypothesis import example, given, strategies as st

from encsum.pipeline import (
    ChunkConfig,
    ScoredSentence,
    ThresholdSweepResult,
    apply_cutoff,
    chunk_encounter,
    merge_scores,
    postprocess,
    summary_text,
    sweep_threshold,
)
from encsum.rouge import rouge_l
from encsum.textproc import split_sentences, tokenize
from tests.conftest import make_sentence


def _sent_of_tokens(n_tokens, doc=0, idx=0, word="tok"):
    return make_sentence(" ".join(f"{word}{k}" for k in range(n_tokens)), doc, idx)


class TestChunk:
    def test_greedy_fill_hand_trace(self):
        sents = [_sent_of_tokens(300, 0, i) for i in range(5)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=1024))
        assert [len(s.sentences) for s in segments] == [3, 2]
        assert [s.token_count for s in segments] == [900, 600]

    def test_empty(self):
        assert chunk_encounter([], ChunkConfig()) == []

    def test_oversize_sentence_windowed(self):
        sents = [_sent_of_tokens(2000, 0, 0)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=1024))
        assert [s.token_count for s in segments] == [1024, 976]
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
            assert segment.token_count <= budget


def _identity_scores(segments):
    return {
        seg.segment_id: [ScoredSentence(key, 1.0, text) for key, text in zip(seg.sentences, seg.texts)]
        for seg in segments
    }


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
            segments[0].segment_id: [ScoredSentence((0, 0), 0.2, segments[0].texts[0])],
            segments[1].segment_id: [ScoredSentence((0, 0), 0.7, segments[1].texts[0])],
        }
        merged = merge_scores(segments, scores)
        assert len(merged) == 1
        assert merged[0].score == 0.7
        assert merged[0].text.split() == list(sents[0].tokens)

    def test_missing_key_fatal(self):
        sents = [_sent_of_tokens(4, 0, 0), _sent_of_tokens(4, 0, 1)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=100), "e1")
        scores = {segments[0].segment_id: [ScoredSentence((0, 0), 0.5, "x")]}
        with pytest.raises(ValueError, match="e1/0"):
            merge_scores(segments, scores)

    def test_extra_key_fatal(self):
        sents = [_sent_of_tokens(4, 0, 0)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=100), "e1")
        scores = {
            segments[0].segment_id: [
                ScoredSentence((0, 0), 0.5, "x"),
                ScoredSentence((9, 9), 0.5, "y"),
            ]
        }
        with pytest.raises(ValueError):
            merge_scores(segments, scores)

    def test_missing_segment_fatal(self):
        sents = [_sent_of_tokens(4, 0, 0)]
        segments = chunk_encounter(sents, ChunkConfig(max_tokens=100), "e1")
        with pytest.raises(ValueError):
            merge_scores(segments, {})


class TestPostprocess:
    def test_normalized_dedup(self):
        kept = postprocess(
            [
                ScoredSentence((0, 0), 1.0, "a b"),
                ScoredSentence((0, 1), 1.0, "a  B"),
                ScoredSentence((0, 2), 1.0, "c"),
            ]
        )
        assert [s.text for s in kept] == ["a b", "c"]

    def test_unique_unchanged(self):
        items = [ScoredSentence((0, i), 1.0, f"s{i}") for i in range(4)]
        assert postprocess(items) == items

    def test_empty(self):
        assert postprocess([]) == []
        assert summary_text([]) == ""

    @given(st.lists(st.sampled_from(["a b", "A  b", "c", "d e", "D E "]), max_size=12))
    def test_idempotent(self, texts):
        items = [ScoredSentence((0, i), 0.5, t) for i, t in enumerate(texts)]
        once = postprocess(items)
        assert postprocess(once) == once


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
    refs = [make_sentence(reference_text)]
    return scored, refs


def reevaluate_grid(validation, thresholds, mask_deid=False):
    """Independent re-evaluation of every candidate threshold.

    Each candidate summary is joined and tokenised afresh, as the sweep did
    before it tokenised each sentence once.
    """
    means = []
    for t in thresholds:
        per = []
        for scored, refs in validation:
            kept = apply_cutoff(scored, t)
            cand = tokenize(summary_text(kept), mask_deid=mask_deid)
            ref = [s for r in refs for s in r.tokens]
            per.append(rouge_l(cand, ref).f1)
        means.append(fmean(per))
    return means


# Words that exercise dedup (case), punctuation peeling and de-identification
# placeholders, including brackets left dangling by sentence segmentation.
_SWEEP_WORDS = [
    "a", "B", "b", "pain", "Dr.", "[", "]", "[ Dr.", "Smith 12 ]", "[ x ]", "x]", "[y", "**",
]
_sweep_text = st.lists(st.sampled_from(_SWEEP_WORDS), min_size=1, max_size=6).map(" ".join)
_sweep_instances = st.lists(
    st.tuples(
        st.lists(st.tuples(_sweep_text, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
                 min_size=1, max_size=8),
        _sweep_text,
    ),
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
        assert 0.2 < result.chosen_threshold <= 0.8

    def test_all_matching_ties_resolve_to_smallest(self):
        validation = [
            _sweep_instance([("same text.", 0.3), ("same text.", 0.7)], "same text."),
        ]
        result = sweep_threshold(validation)
        assert result.chosen_threshold == min(result.thresholds)

    def test_single_instance_two_sentences(self):
        validation = [
            _sweep_instance([("the right answer.", 0.75), ("wrong thing entirely.", 0.25)],
                            "the right answer.")
        ]
        result = sweep_threshold(validation)
        means = reevaluate_grid(validation, result.thresholds)
        best = max(means)
        assert means[result.thresholds.index(result.chosen_threshold)] == best
        assert result.chosen_threshold > 0.25

    def test_chosen_attains_grid_maximum(self, rng):
        validation = []
        for _ in range(6):
            sent_scores = [
                (" ".join(rng.choice("abcd") for _ in range(4)) + ".", rng.random())
                for _ in range(8)
            ]
            validation.append(_sweep_instance(sent_scores, "a b c d."))
        result = sweep_threshold(validation)
        means = reevaluate_grid(validation, result.thresholds)
        assert list(result.mean_scores) == pytest.approx(means)
        chosen_mean = means[result.thresholds.index(result.chosen_threshold)]
        assert chosen_mean == max(means)
        # tie rule: nothing smaller achieves the same mean
        for t, m in zip(result.thresholds, means):
            if m == chosen_mean:
                assert result.chosen_threshold <= t

    @given(_sweep_instances, st.booleans())
    @example(
        [([("Seen by [ Dr.", 0.5), ("Smith 12 ] today.", 0.5)], "seen by [ Dr. Smith 12 ] today")],
        True,
    )
    def test_equals_join_and_retokenise_reference(self, instances, mask_deid):
        validation = [
            (
                [ScoredSentence((0, i), score, text) for i, (text, score) in enumerate(sents)],
                split_sentences(ref_text, mask_deid=mask_deid),
            )
            for sents, ref_text in instances
        ]
        result = sweep_threshold(validation, mask_deid=mask_deid)
        means = reevaluate_grid(validation, result.thresholds, mask_deid=mask_deid)
        best = max(range(len(means)), key=lambda i: (means[i], -i))
        assert result == ThresholdSweepResult(
            result.thresholds, tuple(means), result.thresholds[best]
        )

    def test_empty_validation_fatal(self):
        with pytest.raises(ValueError):
            sweep_threshold([])

    def test_no_scores_fatal(self):
        with pytest.raises(ValueError):
            sweep_threshold([([], [make_sentence("x.")])])
