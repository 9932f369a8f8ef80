import random

import pytest
from hypothesis import given, settings, strategies as st

from encsum.labeling import _F1, _RECALL, _argmax_per_reference, build_pseudo_pairs, oracle_extract
from encsum.rouge import LcsPool, prf, rouge_l
from encsum.textproc import Sentence
from tests.conftest import make_sentence
from tests.test_rouge import brute_force_lcs


def _pool(texts_by_doc):
    pool = []
    for d, texts in enumerate(texts_by_doc):
        for i, text in enumerate(texts):
            pool.append(make_sentence(text, d, i))
    return pool


def exhaustive_argmax(reference_sents, source_sents, mode):
    """Independent selection: brute-force LCS plus the contractual P/R/F1 formulas."""
    picks = []
    for ref in reference_sents:
        best_key, best_score = None, -1.0
        for src in source_sents:
            l = brute_force_lcs(src.tokens, ref.tokens)
            if not src.tokens or not ref.tokens:
                score = 0.0
            else:
                p = l / len(src.tokens)
                r = l / len(ref.tokens)
                score = r if mode == "recall" else (2 * p * r / (p + r) if p + r > 0 else 0.0)
            if score > best_score or (score == best_score and src.key < best_key):
                best_key, best_score = src.key, score
        picks.append((best_key, best_score))
    return picks


class TestOracleExtract:
    def test_identity_pick(self):
        pool = _pool([["no fever.", "chest pain noted.", "stable overnight."]])
        refs = [make_sentence("chest pain noted.")]
        extraction = oracle_extract(refs, pool)
        assert extraction.picks[0].source_key == (0, 1)
        assert extraction.picks[0].score == 1.0
        assert extraction.summary_text == "chest pain noted."

    def test_tie_breaks_to_lowest_key(self):
        pool = _pool([["same text.", "same text."]])
        refs = [make_sentence("same text.")]
        extraction = oracle_extract(refs, pool)
        assert extraction.picks[0].source_key == (0, 0)

    def test_picks_follow_reference_order(self):
        pool = _pool([["alpha one.", "beta two.", "gamma three."]])
        refs = [make_sentence("gamma three.", 0, 0), make_sentence("alpha one.", 0, 1)]
        extraction = oracle_extract(refs, pool)
        assert [p.source_key for p in extraction.picks] == [(0, 2), (0, 0)]
        assert extraction.summary_text == "gamma three.\nalpha one."

    def test_empty_source_pool_fatal(self):
        with pytest.raises(ValueError):
            oracle_extract([make_sentence("x.")], [])

    def test_empty_reference_fatal(self):
        with pytest.raises(ValueError):
            oracle_extract([], _pool([["x."]]))

    def test_scores_recomputable(self, rng):
        pool, refs = _random_instance(rng)
        extraction = oracle_extract(refs, pool)
        by_key = {s.key: s for s in pool}
        for pick in extraction.picks:
            ref = refs[pick.reference_index]
            assert rouge_l(by_key[pick.source_key].tokens, ref.tokens).f1 == pick.score

    def test_no_strictly_better_source(self, rng):
        pool, refs = _random_instance(rng)
        extraction = oracle_extract(refs, pool)
        for pick in extraction.picks:
            ref = refs[pick.reference_index]
            for src in pool:
                assert rouge_l(src.tokens, ref.tokens).f1 <= pick.score

    def test_matches_exhaustive_argmax(self, rng):
        for _ in range(30):
            pool, refs = _random_instance(rng)
            extraction = oracle_extract(refs, pool)
            expected = exhaustive_argmax(refs, pool, "f1")
            assert [(p.source_key, p.score) for p in extraction.picks] == expected

    def test_ordering_invariance_when_untied(self, rng):
        pool, refs = _random_instance(rng, distinct=True)
        baseline = oracle_extract(refs, pool)
        shuffled = pool[:]
        rng.shuffle(shuffled)
        again = oracle_extract(refs, shuffled)
        assert [p.source_key for p in again.picks] == [p.source_key for p in baseline.picks]


class TestPseudoPairs:
    def test_single_pair(self):
        pool = _pool([["only sentence."]])
        pairs = build_pseudo_pairs([make_sentence("only sentence.")], pool)
        assert len(pairs.pairs) == 1
        assert pairs.positives == ((0, 0),)

    def test_duplicate_picks_collapse(self):
        pool = _pool([["target phrase here.", "unrelated words entirely."]])
        refs = [
            make_sentence("target phrase here.", 0, 0),
            make_sentence("target phrase again here.", 0, 1),
        ]
        pairs = build_pseudo_pairs(refs, pool)
        assert len(pairs.pairs) == 2
        assert pairs.positives == ((0, 0),)

    def test_matches_exhaustive_recall_argmax(self, rng):
        for _ in range(30):
            pool, refs = _random_instance(rng)
            pairs = build_pseudo_pairs(refs, pool)
            expected = exhaustive_argmax(refs, pool, "recall")
            assert [(p.source_key, p.score) for p in pairs.pairs] == expected

    def test_wire_record(self):
        pool = _pool([["a b.", "c d."]])
        pairs = build_pseudo_pairs([make_sentence("a b.")], pool)
        record = pairs.to_record("e1", "chief_complaint")
        assert record == {
            "encounter_id": "e1",
            "section": "chief_complaint",
            "positives": [[0, 0]],
            "pairs": [{"src": [0, 0], "ref": 0, "score": 1.0}],
        }

    def test_agrees_with_oracle_when_argmaxes_coincide(self):
        # Constructed so the recall argmax and the F1 argmax are the same sentence.
        pool = _pool([["alpha beta gamma.", "delta epsilon zeta."]])
        refs = [make_sentence("alpha beta gamma.")]
        assert (
            build_pseudo_pairs(refs, pool).pairs[0].source_key
            == oracle_extract(refs, pool).picks[0].source_key
        )


def _random_instance(rng: random.Random, distinct: bool = False):
    vocab = list("abcd")
    n_docs = rng.randint(1, 3)
    pool = []
    seen = set()
    for d in range(n_docs):
        for i in range(rng.randint(1, 7)):
            words = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            if distinct and words in seen:
                continue
            seen.add(words)
            pool.append(make_sentence(" ".join(words), d, i))
    refs = [
        make_sentence(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8))), 0, i)
        for i in range(rng.randint(1, 5))
    ]
    return pool, refs


def loop_argmax(reference_sents, source_sents, metric):
    """The per-pair loop that ``_argmax_per_reference`` replaces: one ``prf``
    call per (reference, source) pair, the best score kept, ties to the
    lowest key."""
    lcs_pool = LcsPool([s.tokens for s in source_sents])
    lengths = [len(s.tokens) for s in source_sents]
    picks = []
    for ref_index, ref in enumerate(reference_sents):
        ref_len = len(ref.tokens)
        best_sent = None
        best_score = -1.0
        lcs = lcs_pool.lcs(lcs_pool.masks_of(ref.tokens))
        for src, n, overlap in zip(source_sents, lengths, lcs):
            score = prf(overlap, n, ref_len)[metric]
            if score > best_score or (score == best_score and src.key < best_sent.key):
                best_sent = src
                best_score = score
        picks.append((ref_index, best_sent, best_score))
    return picks


def _picks(picks):
    # Sentence equality would merge two sources that differ only in identity.
    return [(i, id(s), s.key, score) for i, s, score in picks]


_tokens = st.lists(st.sampled_from("abcde"), max_size=8).map(tuple)


@st.composite
def argmax_instances(draw):
    """Pools in any key order, with repeated keys, repeated token sequences and
    sources without tokens; references may be without tokens too."""
    pool = [
        Sentence(draw(_tokens), draw(st.integers(0, 2)), draw(st.integers(0, 4)), "")
        for _ in range(draw(st.integers(1, 10)))
    ]
    refs = [Sentence(draw(_tokens), 0, i, "") for i in range(draw(st.integers(1, 4)))]
    return refs, pool


class TestArgmaxMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(argmax_instances(), st.sampled_from([_F1, _RECALL]))
    def test_random_pools(self, instance, metric):
        refs, pool = instance
        assert _picks(_argmax_per_reference(refs, pool, None, metric)) == _picks(
            loop_argmax(refs, pool, metric)
        )

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("metric", [_F1, _RECALL])
    def test_f1_tie_rounded_one_ulp_apart(self, reverse, metric):
        # With a 59-token reference, overlap 42 of 70 and 56 of 113 both have
        # F1 = 28/43 exactly, but prf rounds them to ...744 and ...745: the
        # second source wins on F1 although its key is higher.
        ref = tuple(f"r{i}" for i in range(59))
        first = ref[:42] + tuple(f"x{i}" for i in range(28))
        second = ref[:56] + tuple(f"y{i}" for i in range(57))
        assert prf(42, 70, 59)[2] < prf(56, 113, 59)[2]
        pool = [Sentence(first, 0, 0, ""), Sentence(second, 0, 1, "")]
        if reverse:
            pool.reverse()
        refs = [Sentence(ref, 0, 0, "")]
        got = _argmax_per_reference(refs, pool, None, metric)
        assert _picks(got) == _picks(loop_argmax(refs, pool, metric))
        assert got[0][1].key == (0, 1)
