import random
from collections import defaultdict
from math import gcd

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


def _pooled(pool):
    return LcsPool([s.tokens for s in pool])


def oracle_picks(refs, pool):
    """(source key, ROUGE-L F1) of the oracle's pick for each reference sentence."""
    return [(s.key, score) for s, score in _argmax_per_reference(refs, pool, _pooled(pool), _F1)]


class TestOracleExtract:
    def test_identity_pick(self):
        pool = _pool([["no fever.", "chest pain noted.", "stable overnight."]])
        refs = [make_sentence("chest pain noted.")]
        assert oracle_picks(refs, pool) == [((0, 1), 1.0)]
        assert oracle_extract(refs, pool, _pooled(pool)) == "chest pain noted."

    def test_tie_breaks_to_lowest_key(self):
        pool = _pool([["same text.", "same text."]])
        refs = [make_sentence("same text.")]
        [(sentence, _)] = _argmax_per_reference(refs, pool, _pooled(pool), _F1)
        assert sentence is pool[0]

    def test_picks_follow_reference_order(self):
        pool = _pool([["alpha one.", "beta two.", "gamma three."]])
        refs = [make_sentence("gamma three.", 0, 0), make_sentence("alpha one.", 0, 1)]
        assert [key for key, _ in oracle_picks(refs, pool)] == [(0, 2), (0, 0)]
        assert oracle_extract(refs, pool, _pooled(pool)) == "gamma three.\nalpha one."

    def test_empty_source_pool_fatal(self):
        with pytest.raises(ValueError):
            oracle_extract([make_sentence("x.")], [], LcsPool([]))

    def test_empty_reference_fatal(self):
        pool = _pool([["x."]])
        with pytest.raises(ValueError):
            oracle_extract([], pool, _pooled(pool))

    def test_scores_recomputable(self, rng):
        pool, refs = _random_instance(rng)
        by_key = {s.key: s for s in pool}
        for ref, (key, score) in zip(refs, oracle_picks(refs, pool)):
            assert rouge_l(by_key[key].tokens, ref.tokens).f1 == score

    def test_no_strictly_better_source(self, rng):
        pool, refs = _random_instance(rng)
        for ref, (_, score) in zip(refs, oracle_picks(refs, pool)):
            for src in pool:
                assert rouge_l(src.tokens, ref.tokens).f1 <= score

    def test_matches_exhaustive_argmax(self, rng):
        for _ in range(30):
            pool, refs = _random_instance(rng)
            expected = exhaustive_argmax(refs, pool, "f1")
            assert oracle_picks(refs, pool) == expected
            by_key = {s.key: s for s in pool}
            assert oracle_extract(refs, pool, _pooled(pool)) == "\n".join(
                by_key[key].raw_text for key, _ in expected
            )

    def test_ordering_invariance_when_untied(self, rng):
        pool, refs = _random_instance(rng, distinct=True)
        shuffled = pool[:]
        rng.shuffle(shuffled)
        assert oracle_picks(refs, shuffled) == oracle_picks(refs, pool)
        assert oracle_extract(refs, shuffled, _pooled(shuffled)) == oracle_extract(
            refs, pool, _pooled(pool)
        )


class TestPseudoPairs:
    def test_single_pair(self):
        pool = _pool([["only sentence."]])
        pairs = build_pseudo_pairs([make_sentence("only sentence.")], pool, _pooled(pool))
        assert len(pairs["pairs"]) == 1
        assert pairs["positives"] == [[0, 0]]

    def test_duplicate_picks_collapse(self):
        pool = _pool([["target phrase here.", "unrelated words entirely."]])
        refs = [
            make_sentence("target phrase here.", 0, 0),
            make_sentence("target phrase again here.", 0, 1),
        ]
        pairs = build_pseudo_pairs(refs, pool, _pooled(pool))
        assert len(pairs["pairs"]) == 2
        assert pairs["positives"] == [[0, 0]]

    def test_matches_exhaustive_recall_argmax(self, rng):
        for _ in range(30):
            pool, refs = _random_instance(rng)
            pairs = build_pseudo_pairs(refs, pool, _pooled(pool))
            expected = exhaustive_argmax(refs, pool, "recall")
            assert pairs["pairs"] == [
                {"src": list(key), "ref": i, "score": score}
                for i, (key, score) in enumerate(expected)
            ]
            assert pairs["positives"] == [list(key) for key in sorted({key for key, _ in expected})]

    def test_wire_record(self):
        pool = _pool([["a b.", "c d."]])
        assert build_pseudo_pairs([make_sentence("a b.")], pool, _pooled(pool)) == {
            "positives": [[0, 0]],
            "pairs": [{"src": [0, 0], "ref": 0, "score": 1.0}],
        }

    def test_agrees_with_oracle_when_argmaxes_coincide(self):
        # Constructed so the recall argmax and the F1 argmax are the same sentence.
        pool = _pool([["alpha beta gamma.", "delta epsilon zeta."]])
        refs = [make_sentence("alpha beta gamma.")]
        [pair] = build_pseudo_pairs(refs, pool, _pooled(pool))["pairs"]
        [(key, _)] = oracle_picks(refs, pool)
        assert tuple(pair["src"]) == key


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
    for ref in reference_sents:
        ref_len = len(ref.tokens)
        best_sent = None
        best_score = -1.0
        lcs = lcs_pool.lcs(lcs_pool.masks_of(ref.tokens))
        for src, n, overlap in zip(source_sents, lengths, lcs):
            score = prf(overlap, n, ref_len)[metric]
            if score > best_score or (score == best_score and src.key < best_sent.key):
                best_sent = src
                best_score = score
        picks.append((best_sent, best_score))
    return picks


def _picks(picks):
    # Sentence equality would merge two sources that differ only in identity.
    return [(id(s), s.key, score) for s, score in picks]


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
        assert _picks(_argmax_per_reference(refs, pool, _pooled(pool), metric)) == _picks(
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
        got = _argmax_per_reference(refs, pool, _pooled(pool), metric)
        assert _picks(got) == _picks(loop_argmax(refs, pool, metric))
        assert got[0][0].key == (0, 1)


def _ratio_classes(max_ref: int = 40, max_len: int = 60) -> list[tuple[int, list[tuple[int, int]]]]:
    """(L, the (overlap o, source length n) pairs of one F1 ratio o / (n + L))
    for each ratio that two or more pairs share, with 0 < o <= min(n, L).

    Equal ratios are equal fractions, so their float keys are equal, while
    prf rounds the F1 of more than half of these classes to two or more
    floats."""
    classes = []
    for ref_len in range(1, max_ref + 1):
        by_ratio = defaultdict(list)
        for n in range(1, max_len + 1):
            for o in range(1, min(n, ref_len) + 1):
                d = gcd(o, n + ref_len)
                by_ratio[o // d, (n + ref_len) // d].append((o, n))
        classes += [(ref_len, pairs) for pairs in by_ratio.values() if len(pairs) > 1]
    return classes


_RATIO_CLASSES = _ratio_classes()


@st.composite
def planted_ties(draw):
    """A reference and a pool in which two or more sources share its F1
    ratio, among sources without overlap and sources without tokens, at
    drawn positions; keys in pool order or drawn out of it. The references
    may include one without tokens."""
    ref_len, pairs = draw(st.sampled_from(_RATIO_CLASSES))
    ref = tuple(f"r{i}" for i in range(ref_len))
    planted = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=4))
    # A source's overlap is its prefix of the reference; its filler tokens
    # are its own, so its LCS with the reference is o.
    tokens = [ref[:o] + tuple(f"x{j}.{k}" for k in range(n - o)) for j, (o, n) in enumerate(planted)]
    tokens += draw(st.lists(_tokens, max_size=3))
    tokens += [()] * draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(tokens))))
    keys = range(len(tokens)) if draw(st.booleans()) else draw(st.permutations(range(len(tokens))))
    pool = [Sentence(tokens[j], 0, key, "") for j, key in zip(order, keys)]
    refs = [Sentence(ref, 0, 0, "")]
    if draw(st.booleans()):
        refs.insert(draw(st.integers(0, 1)), Sentence((), 0, 1, ""))
    return refs, pool


class TestPlantedF1Ties:
    @settings(max_examples=300, deadline=None)
    @given(planted_ties(), st.sampled_from([_F1, _RECALL]))
    def test_planted_ties_match_loop(self, instance, metric):
        refs, pool = instance
        assert _picks(_argmax_per_reference(refs, pool, _pooled(pool), metric)) == _picks(
            loop_argmax(refs, pool, metric)
        )
