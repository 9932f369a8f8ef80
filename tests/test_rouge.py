import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from encsum.evaluate import score_section
from encsum.rouge import LcsPool, lcs_length, rouge_l, rouge_n
from encsum.sections import SectionInstance, SectionName
from encsum.textproc import tokenize

tokens = st.lists(st.sampled_from("abcd"), max_size=8)


def brute_force_lcs(a, b):
    """Exhaustive subsequence search; independent of the DP implementation."""
    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(a, r):
            if _is_subsequence(combo, b):
                return r
    return best


def dp_lcs_length(a, b):
    """Reference LCS length: the O(len(a)*len(b)) dynamic programme."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _sequences(alphabet):
    # Lengths up to 300 cross the 30-bit digits of CPython ints and 64-bit words.
    return st.integers(0, 300).flatmap(
        lambda n: st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)
    )


_BINARY = ["x", "y"]
_WIDE = [f"w{i}" for i in range(50)]


def _pools(alphabet):
    """Up to 12 sequences, empty and 1-token ones included, 300 tokens in all."""
    seq = st.one_of(
        st.just([]),
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=1),
        st.lists(st.sampled_from(alphabet), max_size=60),
    )
    return st.lists(seq, max_size=12).filter(lambda seqs: sum(map(len, seqs)) <= 300)


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(tok in it for tok in needle)


def brute_force_ngram_overlap(a, b, n):
    """Direct multiset counting via greedy pairing, no Counter machinery."""
    a_grams = [tuple(a[i:i + n]) for i in range(len(a) - n + 1)]
    b_grams = [tuple(b[i:i + n]) for i in range(len(b) - n + 1)]
    overlap = 0
    for gram in a_grams:
        if gram in b_grams:
            b_grams.remove(gram)
            overlap += 1
    return overlap


class TestRougeN:
    def test_bigram_half_overlap(self):
        score = rouge_n(["a", "b", "c"], ["a", "b", "d"], 2)
        assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)

    def test_identity(self):
        for n in (1, 2, 3):
            score = rouge_n(["x", "y", "z"], ["x", "y", "z"], n)
            assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        score = rouge_n(["a", "b"], ["c", "d"], 1)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_zero_order_fatal(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], ["a"], 0)

    def test_empty_sides(self):
        assert rouge_n([], ["a"], 1).f1 == 0.0
        assert rouge_n(["a"], [], 1).f1 == 0.0


class TestRougeL:
    def test_prefix(self):
        score = rouge_l(["the", "cat", "sat"], ["the", "cat"])
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == 1.0
        assert score.f1 == pytest.approx(0.8)

    def test_empty_sides(self):
        assert rouge_l([], ["a"]) == rouge_l(["a"], [])
        assert rouge_l([], []).f1 == 0.0

    def test_reversed_distinct(self):
        assert lcs_length(["a", "b", "c"], ["c", "b", "a"]) == 1

    @given(tokens, tokens)
    def test_symmetry_swap(self, a, b):
        assert rouge_l(a, b).precision == rouge_l(b, a).recall
        assert rouge_n(a, b, 1).precision == rouge_n(b, a, 1).recall

    @given(tokens, tokens, st.sampled_from("abcd"))
    def test_lcs_monotone_append(self, a, b, extra):
        assert lcs_length(a, b + [extra]) >= lcs_length(a, b)

    @given(tokens, tokens)
    def test_scores_in_unit_interval(self, a, b):
        for score in (rouge_l(a, b), rouge_n(a, b, 1), rouge_n(a, b, 2)):
            for v in (score.precision, score.recall, score.f1):
                assert 0.0 <= v <= 1.0

    @given(tokens, tokens)
    def test_lcs_equals_brute_force(self, a, b):
        assert lcs_length(a, b) == brute_force_lcs(a, b)

    @settings(max_examples=60, deadline=None)
    @given(_sequences(_BINARY), _sequences(_BINARY))
    @example(["x"] * 30, ["x", "y"] * 15)
    @example(["x", "y"] * 32, ["y"] * 31 + ["x"] * 34)
    @example(["y"] * 300, ["x"] * 299 + ["y"])
    def test_lcs_equals_dp_binary(self, a, b):
        assert lcs_length(a, b) == dp_lcs_length(a, b)

    @settings(max_examples=60, deadline=None)
    @given(_sequences(_WIDE), _sequences(_WIDE))
    @example(_WIDE * 6, list(reversed(_WIDE)) * 6)
    def test_lcs_equals_dp_wide_alphabet(self, a, b):
        assert lcs_length(a, b) == dp_lcs_length(a, b)

    @given(tokens, tokens, st.integers(1, 3))
    def test_ngram_overlap_equals_brute_force(self, a, b, n):
        score = rouge_n(a, b, n)
        overlap = brute_force_ngram_overlap(a, b, n)
        ca = max(0, len(a) - n + 1)
        cb = max(0, len(b) - n + 1)
        if ca and cb:
            assert score.precision * ca == pytest.approx(overlap)
            assert score.recall * cb == pytest.approx(overlap)
        else:
            assert score.f1 == 0.0


class TestLcsPool:
    """One pass of a query over a packed pool equals the DP against each sequence."""

    @settings(max_examples=150, deadline=None)
    @given(_pools(_BINARY), _sequences(_BINARY))
    # A run of matches carries out of a 30-token sequence into its guard bit.
    @example([["x"] * 30, ["x", "y"] * 15, [], ["y"]], ["x"] * 40 + ["y"] * 40)
    @example([[], [], ["x"]], ["x"])
    @example([], ["x", "y"])
    def test_binary_alphabet_equals_dp(self, seqs, query):
        pool = LcsPool(seqs)
        assert pool.lcs(pool.masks_of(query)) == [dp_lcs_length(query, s) for s in seqs]

    @settings(max_examples=80, deadline=None)
    @given(_pools(_WIDE), st.lists(st.sampled_from(_WIDE + ["absent"]), max_size=80))
    def test_wide_alphabet_equals_dp(self, seqs, query):
        pool = LcsPool(seqs)
        assert pool.lcs(pool.masks_of(query)) == [dp_lcs_length(query, s) for s in seqs]

    def test_masks_drop_tokens_the_pool_lacks(self):
        pool = LcsPool([["a", "b"], ["b"]])
        assert pool.masks_of(["z", "b", "y", "a"]) == [0b1010, 0b0001]
        assert pool.lcs([]) == [0, 0]

    @settings(max_examples=150, deadline=None)
    @given(_sequences(_BINARY), st.integers(0, 12), st.data())
    def test_tiled_lanes_equal_separate_pools(self, reference, copies, data):
        """Lane j of a tiled pool sees only the query tokens whose window
        [a, b) holds j; every window, empty ones included, is drawn."""
        window = st.tuples(st.integers(0, copies), st.integers(0, copies))
        query = data.draw(
            st.lists(st.tuples(st.sampled_from(_BINARY + ["absent"]), window), max_size=60)
        )
        pool = LcsPool.tiled(reference, copies)
        masks = [
            mask & pool.window(a, b) for token, (a, b) in query for mask in pool.masks_of([token])
        ]
        single = LcsPool((reference,))
        assert pool.lcs(masks) == [
            single.lcs(single.masks_of([t for t, (a, b) in query if a <= lane < b]))[0]
            for lane in range(copies)
        ]

    @settings(deadline=None)
    @given(_sequences(_BINARY), st.integers(0, 12), _sequences(_BINARY))
    @example(["x"] * 30, 3, ["x"] * 40)
    @example([], 4, ["x"])
    def test_tiled_equals_repeated_pool(self, reference, copies, query):
        tiled, repeated = LcsPool.tiled(reference, copies), LcsPool([reference] * copies)
        masks = tiled.masks_of(query)
        assert masks == repeated.masks_of(query)
        assert tiled.lcs(masks) == repeated.lcs(masks)
        everywhere = tiled.window(0, copies)
        assert [mask & everywhere for mask in masks] == masks


# Words with repeats, a sentence end and de-identification placeholders, which
# --mask-deid turns into one token each.
_SUMMARY_WORDS = ["pain", "at", "rest", "htn.", "[ dr x ]", "[ 12 ]"]
summary_texts = st.one_of(
    st.just(""),
    st.sampled_from(_SUMMARY_WORDS),
    st.lists(st.sampled_from(_SUMMARY_WORDS), max_size=60).map(" ".join),
)
_ROUGE_COLUMNS = (
    "rouge1_p", "rouge1_r", "rouge1_f1", "rouge2_p", "rouge2_r", "rouge2_f1",
    "rougeL_p", "rougeL_r", "rougeL_f1",
)


@settings(deadline=None)
@given(summary_texts, st.lists(summary_texts, min_size=1, max_size=3), st.booleans())
@example("pain", ["", "pain", "pain at rest pain"], False)
@example("[ dr x ] pain", ["[ 12 ]", "[ dr x ]"], True)
def test_score_section_rouge_equals_oracles(reference, candidates, mask_deid):
    """Each row's nine ROUGE columns are rouge_n(cand, ref, 1|2) and
    rouge_l(cand, ref) on the tokens evaluate scores."""
    section = SectionName.CHIEF_COMPLAINT
    instance = SectionInstance("e1", section, reference, (0, len(reference)))
    summaries = {("e1", section.value, f"sys{k}"): text for k, text in enumerate(candidates)}
    rows = score_section(
        [instance], {"e1": frozenset()}, summaries, lambda key, texts, tokens: frozenset(), 3.0,
        mask_deid=mask_deid,
    )
    ref = tokenize(reference, mask_deid=mask_deid)
    for row, text in zip(rows, candidates, strict=True):
        cand = tokenize(text, mask_deid=mask_deid)
        oracles = (rouge_n(cand, ref, 1), rouge_n(cand, ref, 2), rouge_l(cand, ref))
        expected = [v for o in oracles for v in (o.precision, o.recall, o.f1)]
        assert [getattr(row, column) for column in _ROUGE_COLUMNS] == expected
