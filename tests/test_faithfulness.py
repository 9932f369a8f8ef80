import json
import logging

import pytest
from hypothesis import example, given, strategies as st

from encsum.evaluate import gazetteer_entities, score_section
from encsum.faithfulness import (
    FaithfulnessScores,
    Gazetteer,
    extract_entities_gazetteer,
    f_beta,
    ingest_entity_annotations,
    load_gazetteer,
    match_gazetteer,
    score_sets,
)
from encsum.sections import SectionInstance, SectionName
from encsum.textproc import tokenize

entity_sets = st.sets(st.sampled_from("abcdefghijkl"), max_size=12)


def _sets(src, ref, sys_):
    return frozenset(src), frozenset(ref), frozenset(sys_)


def oracle_regions(src, ref, sys_):
    """Direct membership counting over the union universe."""
    universe = set(src) | set(ref) | set(sys_)
    counts = dict(
        source_only=0, reference_only=0, system_only=0,
        source_reference=0, source_system=0, reference_system=0, all_three=0,
    )
    for e in universe:
        member = (e in src, e in ref, e in sys_)
        counts[{
            (True, False, False): "source_only",
            (False, True, False): "reference_only",
            (False, False, True): "system_only",
            (True, True, False): "source_reference",
            (True, False, True): "source_system",
            (False, True, True): "reference_system",
            (True, True, True): "all_three",
        }[member]] += 1
    return counts


def oracle_scores(src, ref, sys_, beta=3.0):
    """The scores recomputed from the membership oracle's region counts:
    C = all_three, B = source_reference, G = system_only, and |System| as the
    sum of the four regions inside the system set."""
    counts = oracle_regions(src, ref, sys_)
    c, b, g = counts["all_three"], counts["source_reference"], counts["system_only"]
    system_size = c + g + counts["source_system"] + counts["reference_system"]
    precision = c / system_size if system_size else 0.0
    recall = c / (b + c) if b + c else 0.0
    return FaithfulnessScores(
        fa_precision=precision,
        fa_recall=recall,
        fa_f_beta=f_beta(precision, recall, beta),
        incorrect_hallucination_rate=g / system_size if system_size else 0.0,
        empty_system=system_size == 0,
        empty_relevant=b + c == 0,
    )


# S={x,y,z}, R={y,z,w}, Y={z,w,v}: one entity in each of C, B, F and G.
WORKED = ({"x", "y", "z"}, {"y", "z", "w"}, {"z", "w", "v"})


class TestVennRegions:
    def test_worked_example(self):
        counts = oracle_regions(*WORKED)
        assert (counts["all_three"], counts["source_reference"],
                counts["reference_system"], counts["system_only"]) == (1, 1, 1, 1)
        assert score_sets(*_sets(*WORKED)) == oracle_scores(*WORKED)

    def test_all_equal(self):
        scores = score_sets(*_sets({"a", "b"}, {"a", "b"}, {"a", "b"}))
        assert scores == oracle_scores({"a", "b"}, {"a", "b"}, {"a", "b"})
        assert scores.fa_precision == scores.fa_recall == scores.fa_f_beta == 1.0
        assert scores.incorrect_hallucination_rate == 0.0

    def test_system_disjoint(self):
        scores = score_sets(*_sets({"a"}, {"b"}, {"c", "d"}))
        assert scores == oracle_scores({"a"}, {"b"}, {"c", "d"})
        assert scores.incorrect_hallucination_rate == 1.0
        assert scores.fa_precision == scores.fa_recall == 0.0
        assert scores.empty_relevant and not scores.empty_system

    @given(entity_sets, entity_sets, entity_sets, st.sampled_from([0.5, 1.0, 3.0]))
    def test_matches_membership_oracle(self, src, ref, sys_, beta):
        assert score_sets(*_sets(src, ref, sys_), beta) == oracle_scores(src, ref, sys_, beta)

    @given(entity_sets, entity_sets, entity_sets)
    def test_sizes_reconstruct(self, src, ref, sys_):
        # The set sizes score_sets and the docs use, from the oracle's regions.
        counts = oracle_regions(src, ref, sys_)
        c = counts["all_three"]
        assert len(src & ref) == counts["source_reference"] + c
        assert len(sys_ - src - ref) == counts["system_only"]
        assert len(sys_ & ref) - c == counts["reference_system"]
        for size, regions in (
            (len(src), ("source_only", "source_reference", "source_system")),
            (len(ref), ("reference_only", "source_reference", "reference_system")),
            (len(sys_), ("system_only", "source_system", "reference_system")),
        ):
            assert size == c + sum(counts[name] for name in regions)
        assert counts["reference_system"] + counts["system_only"] == len(sys_ - src)


class TestFaithfulnessScores:
    def test_worked_example(self):
        scores = score_sets(*_sets(*WORKED), beta=3.0)
        assert scores.fa_precision == 1 / 3
        assert scores.fa_recall == 1 / 2
        assert scores.fa_f_beta == pytest.approx(0.476190476, abs=1e-6)
        assert scores.incorrect_hallucination_rate == 1 / 3
        assert not scores.empty_system and not scores.empty_relevant

    def test_fixed_point_when_p_equals_r(self):
        assert f_beta(0.6, 0.6, 3.0) == 0.6

    def test_perfect_subset_system(self):
        scores = score_sets(*_sets({"a", "b", "c"}, {"a", "b"}, {"a", "b"}))
        assert scores.fa_precision == scores.fa_recall == scores.fa_f_beta == 1.0
        assert scores.incorrect_hallucination_rate == 0.0

    def test_empty_system_flag(self):
        scores = score_sets(*_sets({"a"}, {"a"}, set()))
        assert scores.fa_precision == 0.0
        assert scores.incorrect_hallucination_rate == 0.0
        assert scores.empty_system and not scores.empty_relevant

    def test_empty_relevant_flag(self):
        scores = score_sets(*_sets({"a"}, {"b"}, {"a"}))
        assert scores.fa_recall == 0.0
        assert scores.empty_relevant and not scores.empty_system

    def test_bad_beta(self):
        for beta in (0.0, -1.0):
            with pytest.raises(ValueError, match="beta must be positive"):
                score_sets(*_sets({"a"}, {"a"}, {"a"}), beta=beta)

    # beta * beta underflows to 0 below about 1e-162, and --beta accepts such
    # a value: the denominator is then 0 when recall is 0.
    def test_f_beta_underflowing_beta(self):
        assert f_beta(0.5, 0.0, 1e-200) == 0.0
        assert score_sets(*_sets({"a"}, {"b"}, {"a"}), beta=1e-200).fa_f_beta == 0.0

    # beta * beta overflows to inf above about 1.3e154, and --beta accepts such
    # a value: F_beta used to be inf / inf = nan whenever 0 < P != R.
    def test_f_beta_overflowing_beta(self):
        assert f_beta(0.5, 0.25, 1e200) == 0.25
        assert f_beta(0.0, 0.25, 1e200) == 0.0
        assert f_beta(0.5, 0.0, 1e200) == 0.0

    @given(entity_sets, entity_sets, entity_sets)
    def test_products_recover_counts(self, src, ref, sys_):
        scores = score_sets(*_sets(src, ref, sys_))
        counts = oracle_regions(src, ref, sys_)
        c = counts["all_three"]
        if sys_:
            assert scores.fa_precision * len(sys_) == pytest.approx(c, abs=1e-12)
            assert scores.incorrect_hallucination_rate * len(sys_) == pytest.approx(
                counts["system_only"], abs=1e-12
            )
        relevant = counts["source_reference"] + c
        if relevant:
            assert scores.fa_recall * relevant == pytest.approx(c, abs=1e-12)

    @given(st.floats(0, 1), st.floats(0, 1),
           st.floats(0, exclude_min=True, allow_infinity=False))
    @example(0.5, 0.25, 1e200)
    @example(0.5, 0.0, 1e-200)
    @example(0.75, 5e-324, 5e-324)  # P * R rounds up to R: the formula gives 1.0
    @example(0.3, 1e-323, 3.1434555694052576e-162)  # beta^2 * P and P * R round up: 1/3
    def test_f_beta_within_p_r_envelope(self, p, r, beta):
        assert min(p, r) <= f_beta(p, r, beta) <= max(p, r)

    @given(st.floats(0.01, 1), st.floats(0, 1))
    def test_f_beta_approaches_recall(self, p, r):
        # the beta -> infinity limit is R whenever precision is bounded away from 0
        assert f_beta(p, r, 1e6) == pytest.approx(r, abs=1e-6)

    @given(st.floats(0.01, 1), st.floats(0.01, 1))
    def test_van_rijsbergen_identity(self, p, r):
        assert f_beta(p, r, 3.0) == pytest.approx(10 * p * r / (9 * p + r), abs=1e-12)


def greedy_scan_oracle(text, gaz):
    """The gazetteer scan without the first-token index: at each token, every
    length from the longest term's down to 1."""
    tokens = tokenize(text)
    longest = max(map(len, gaz.terms))
    found = set()
    i = 0
    n = len(tokens)
    while i < n:
        matched = 0
        for length in range(min(longest, n - i), 0, -1):
            candidate = tuple(tokens[i:i + length])
            if candidate in gaz.terms:
                found.add(" ".join(candidate))
                matched = length
                break
        i += matched if matched else 1
    return frozenset(found)


def position_scan_oracle(tokens, gaz):
    """The indexed scan that visits every position, not only those whose
    token starts a term."""
    lengths_by_first, terms = gaz.lengths_by_first_token, gaz.terms
    found = set()
    i = 0
    n = len(tokens)
    while i < n:
        step = 1
        for length in lengths_by_first.get(tokens[i], ()):
            candidate = tuple(tokens[i:i + length])
            if candidate in terms:
                found.add(" ".join(candidate))
                step = len(candidate)
                break
        i += step
    return frozenset(found)


# A small vocabulary, so terms that share a first token, terms that are
# prefixes of others, punctuation terms and overlapping matches are common.
_STREAM_VOCAB = ["chest", "pain", "at", "rest", "htn", ".", ",", "-"]
gazetteer_terms = st.lists(
    st.lists(st.sampled_from(_STREAM_VOCAB), min_size=1, max_size=5).map(" ".join),
    min_size=1, max_size=8,
)


class TestGazetteer:
    GAZ = Gazetteer.from_terms(["chest pain", "htn", "pain"])

    def test_longest_match_wins(self):
        got = extract_entities_gazetteer("pt has chest pain and htn", self.GAZ)
        assert got == {"chest pain", "htn"}

    def test_no_terms_found(self):
        got = extract_entities_gazetteer("completely unrelated words", self.GAZ)
        assert got == frozenset()

    def test_set_semantics(self):
        got = extract_entities_gazetteer("htn noted. htn again.", self.GAZ)
        assert got == {"htn"}

    def test_shorter_term_still_found_alone(self):
        got = extract_entities_gazetteer("pain in left arm", self.GAZ)
        assert got == {"pain"}

    def test_match_is_case_and_punct_insensitive(self):
        got = extract_entities_gazetteer("Chest PAIN, htn.", self.GAZ)
        assert got == {"chest pain", "htn"}

    def test_empty_gazetteer_fatal(self):
        with pytest.raises(ValueError):
            Gazetteer.from_terms([])

    def test_default_gazetteer_loads(self):
        gaz = load_gazetteer()
        assert ("chest", "pain") in gaz.terms
        index = gaz.lengths_by_first_token
        assert 2 in index["chest"]
        assert index["coronary"] == (4, 3)
        assert all(list(lengths) == sorted(set(lengths), reverse=True) for lengths in index.values())
        assert {(term[0], len(term)) for term in gaz.terms} == {
            (first, length) for first, lengths in index.items() for length in lengths
        }

    @given(gazetteer_terms, st.lists(st.sampled_from(_STREAM_VOCAB), max_size=40))
    @example(["chest", "chest pain", "chest pain at rest"], "chest pain at chest pain at rest".split())
    @example(["pain", "pain at", "at rest", "."], "pain at rest . pain".split())
    def test_index_scan_equals_greedy_scan(self, terms, stream):
        gaz = Gazetteer.from_terms(terms)
        text = " ".join(stream)
        assert extract_entities_gazetteer(text, gaz) == greedy_scan_oracle(text, gaz)

    @given(gazetteer_terms, st.lists(st.sampled_from([*_STREAM_VOCAB, "x"]), max_size=40))
    @example(["chest pain at", "at rest"], "x chest pain at rest at rest".split())
    @example(["pain", "pain pain"], "pain pain pain".split())
    def test_first_token_positions_equal_every_position(self, terms, stream):
        gaz = Gazetteer.from_terms(terms)
        assert match_gazetteer(stream, gaz) == position_scan_oracle(stream, gaz)


class TestAnnotations:
    def _write(self, path, rows):
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    def test_dedup_and_normalize(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        self._write(path, [
            {"key": "enc:e1:src", "entities": ["HTN", "htn", "chest  pain"]},
            {"key": "enc:e1:chief_complaint:ref", "entities": ["Chest Pain"]},
        ])
        got = ingest_entity_annotations(path)
        assert got == {
            "enc:e1:src": {"htn", "chest pain"},
            "enc:e1:chief_complaint:ref": {"chest pain"},
        }

    def test_system_key_accepted(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        self._write(path, [{"key": "enc:e1:social_history:sys:bart", "entities": ["x"]}])
        got = ingest_entity_annotations(path)
        assert got == {"enc:e1:social_history:sys:bart": {"x"}}

    # The later line used to replace the earlier one without a word.
    def test_repeated_key_fatal(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        self._write(path, [
            {"key": "enc:e1:src", "entities": ["htn"]},
            {"key": "enc:e1:chief_complaint:ref", "entities": ["htn"]},
            {"key": "enc:e1:src", "entities": ["fever"]},
        ])
        with pytest.raises(ValueError, match=r"ann\.jsonl:3: repeated key 'enc:e1:src'"):
            ingest_entity_annotations(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text("")
        assert ingest_entity_annotations(path) == {}

    def test_malformed_line_skipped(self, tmp_path, caplog):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"key": "enc:e1:src", "entities": ["a"]}\n{broken\n')
        with caplog.at_level(logging.WARNING):
            got = ingest_entity_annotations(path)
        assert set(got) == {"enc:e1:src"}
        assert any(":2:" in r.message for r in caplog.records)

    # str() used to turn each of these into a made-up entity such as "none".
    @pytest.mark.parametrize("entity", [None, 3, {"a": 1}, ["htn"], True])
    def test_non_string_entity_skips_line(self, tmp_path, caplog, entity):
        path = tmp_path / "ann.jsonl"
        self._write(path, [
            {"key": "enc:e1:src", "entities": ["a"]},
            {"key": "enc:e2:src", "entities": [entity, "HTN"]},
        ])
        with caplog.at_level(logging.WARNING):
            got = ingest_entity_annotations(path)
        assert got == {"enc:e1:src": {"a"}}
        assert [r.message for r in caplog.records] == [
            f"{path}:2: skipping malformed annotation line"
        ]

    def test_bad_key_shape_skipped(self, tmp_path, caplog):
        path = tmp_path / "ann.jsonl"
        self._write(path, [{"key": "doc7", "entities": ["a"]}])
        with caplog.at_level(logging.WARNING):
            assert ingest_entity_annotations(path) == {}


def score_triples(instances, gazetteer, beta=3.0):
    """The report row for (source texts, reference text, system text) triples.

    Each triple becomes one encounter whose source set is the gazetteer's
    matches in the source texts, scored through ``evaluate.score_section``.
    """
    sources, section_instances, summaries = {}, [], {}
    entities = gazetteer_entities(gazetteer)
    for i, (source_texts, reference_text, system_text) in enumerate(instances):
        eid = f"e{i:04d}"
        sources[eid] = entities(f"enc:{eid}:src", source_texts)
        section_instances.append(SectionInstance(
            eid, SectionName.CHIEF_COMPLAINT, reference_text, (0, len(reference_text))
        ))
        summaries[(eid, SectionName.CHIEF_COMPLAINT.value, "sys")] = system_text
    [row] = score_section(section_instances, sources, summaries, entities, beta)
    return row


class TestEvaluateSection:
    GAZ = Gazetteer.from_terms(["htn", "cad", "fever", "chest pain"])

    def test_macro_mean(self):
        instances = [
            (["htn and cad."], "htn and cad.", "htn and cad."),
            (["fever noted."], "fever noted.", "unrelated text."),
        ]
        assert score_triples(instances[:1], self.GAZ).fa_precision == 1.0
        row = score_triples(instances, self.GAZ)
        assert row.fa_precision == pytest.approx(0.5)
        assert row.instances == 2
        assert row.empty_system == 1

    def test_single_instance_equals_aggregate(self):
        row = score_triples([(["htn."], "htn.", "htn.")], self.GAZ)
        direct = score_sets(
            extract_entities_gazetteer("htn.", self.GAZ),
            extract_entities_gazetteer("htn.", self.GAZ),
            extract_entities_gazetteer("htn.", self.GAZ),
        )
        assert row.fa_precision == direct.fa_precision
        assert row.fa_f_beta == direct.fa_f_beta

    def test_empty_system_contributes_zeros(self):
        row = score_triples([(["htn."], "htn.", "")], self.GAZ)
        assert row.fa_precision == 0.0
        assert row.empty_system == 1

    def test_empty_instance_list_fatal(self):
        with pytest.raises(ValueError):
            score_section([], {}, {}, gazetteer_entities(self.GAZ), 3.0)

    def test_extractive_subset_never_hallucinates(self, rng):
        # System summaries built only from source sentences have zero
        # incorrect-hallucination rate under the gazetteer backend.
        vocab = ["htn", "cad", "fever", "chest", "pain", "stable", "noted", "today"]
        gaz = Gazetteer.from_terms(["htn", "cad", "fever", "chest pain", "pain today"])
        for _ in range(100):
            source_sents = [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6))) + "."
                for _ in range(rng.randint(2, 8))
            ]
            n_docs = rng.randint(1, 3)
            docs = [" ".join(source_sents[i::n_docs]) for i in range(n_docs)]
            picked = [s for s in source_sents if rng.random() < 0.5]
            system_text = "\n".join(picked)
            reference = " ".join(rng.choice(vocab) for _ in range(4)) + "."
            row = score_triples([(docs, reference, system_text)], gaz)
            assert row.incorrect_hallucination_rate == 0.0
