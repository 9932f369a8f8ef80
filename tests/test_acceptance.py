"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import csv
import filecmp
import random
import time
from contextlib import contextmanager

import pytest

from encsum.cli import main
from encsum.faithfulness import Gazetteer, f_beta, score_sets
from encsum.jsonl import read_jsonl
from encsum.labeling import build_pseudo_pairs, oracle_extract
from encsum.pipeline import ChunkConfig, ScoredSentence, chunk_encounter, merge_scores, sweep_threshold
from encsum.rouge import LcsPool, lcs_length, rouge_n
from encsum.textproc import tokenize
from tests.conftest import make_sentence
from tests.test_faithfulness import WORKED, oracle_regions, oracle_scores, score_triples
from tests.test_labeling import exhaustive_argmax, oracle_picks
from tests.test_pipeline import reevaluate_grid, segment_token_count
from tests.test_rouge import brute_force_lcs, brute_force_ngram_overlap


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"\nACCEPTANCE {number} [{label}]: PASS")


def test_criterion_1_rouge_oracle_equivalence():
    with criterion(1, "ROUGE equals brute-force oracles on 1000 random pairs"):
        rng = random.Random(101)
        started = time.monotonic()
        for _ in range(1000):
            a = [rng.choice("abcd") for _ in range(rng.randint(0, 8))]
            b = [rng.choice("abcd") for _ in range(rng.randint(0, 8))]
            assert lcs_length(a, b) == brute_force_lcs(a, b)
            for n in (1, 2):
                overlap = brute_force_ngram_overlap(a, b, n)
                score = rouge_n(a, b, n)
                ca, cb = max(0, len(a) - n + 1), max(0, len(b) - n + 1)
                if ca and cb:
                    assert round(score.precision * ca) == overlap
                    assert round(score.recall * cb) == overlap
                else:
                    assert score.precision == score.recall == score.f1 == 0.0
        assert time.monotonic() - started < 10.0


def test_criterion_2_faithfulness_formulas():
    with criterion(2, "faithfulness set algebra and formulas on 1000 random triples"):
        rng = random.Random(202)
        universe = "abcdefghijkl"
        for _ in range(1000):
            src = {c for c in universe if rng.random() < 0.4}
            ref = {c for c in universe if rng.random() < 0.4}
            sys_ = {c for c in universe if rng.random() < 0.4}
            scores = score_sets(frozenset(src), frozenset(ref), frozenset(sys_))
            assert scores == oracle_scores(src, ref, sys_)
            counts = oracle_regions(src, ref, sys_)
            c = counts["all_three"]
            if sys_:
                assert abs(scores.fa_precision * len(sys_) - c) <= 1e-12
            relevant = counts["source_reference"] + c
            if relevant:
                assert abs(scores.fa_recall * relevant - c) <= 1e-12
            assert counts["reference_system"] + counts["system_only"] == len(sys_ - src)

        counts = oracle_regions(*WORKED)
        assert (counts["all_three"], counts["source_reference"], counts["system_only"]) == (1, 1, 1)
        scores = score_sets(*map(frozenset, WORKED), beta=3.0)
        assert (scores.fa_precision, scores.fa_recall) == (1 / 3, 1 / 2)
        assert scores.fa_f_beta == pytest.approx(0.4762, abs=1e-4)
        assert scores.incorrect_hallucination_rate == 1 / 3


def test_criterion_3_beta_semantics():
    with criterion(3, "F-beta fixed point, recall limit, van Rijsbergen identity"):
        rng = random.Random(303)
        for _ in range(1000):
            p = rng.random()
            assert f_beta(p, p, 3.0) == p
        for _ in range(1000):
            p = 0.01 + 0.99 * rng.random()
            r = rng.random()
            assert abs(f_beta(p, r, 1e6) - r) <= 1e-6
        for _ in range(1000):
            p, r = rng.random(), rng.random()
            expected = 10 * p * r / (9 * p + r) if 9 * p + r > 0 else 0.0
            assert abs(f_beta(p, r, 3.0) - expected) <= 1e-12


def test_criterion_4_extractors_do_not_hallucinate():
    with criterion(4, "extractive summaries have zero incorrect hallucination rate"):
        rng = random.Random(404)
        vocab = ["htn", "cad", "fever", "chest", "pain", "cough", "stable",
                 "noted", "today", "mild", "left", "arm"]
        gaz = Gazetteer.from_terms(
            ["htn", "cad", "fever", "chest pain", "pain today", "left arm", "mild cough"]
        )
        for _ in range(150):
            sentences = [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 7))) + "."
                for _ in range(rng.randint(2, 10))
            ]
            n_docs = rng.randint(1, 3)
            docs = [" ".join(sentences[d::n_docs]) for d in range(n_docs)]
            docs = [d for d in docs if d]
            picked = [s for s in sentences if rng.random() < 0.6]
            system_text = "\n".join(picked)
            reference = " ".join(rng.choice(vocab) for _ in range(5)) + "."
            row = score_triples([(docs, reference, system_text)], gaz)
            assert row.incorrect_hallucination_rate == 0.0


def test_criterion_5_oracle_extraction_optimality():
    with criterion(5, "greedy labeling equals exhaustive argmax on 200 random instances"):
        rng = random.Random(505)
        for _ in range(200):
            n_src = rng.randint(1, 20)
            pool = [
                make_sentence(
                    " ".join(rng.choice("abcd") for _ in range(rng.randint(1, 8))),
                    rng.randint(0, 2), i,
                )
                for i in range(n_src)
            ]
            refs = [
                make_sentence(
                    " ".join(rng.choice("abcd") for _ in range(rng.randint(1, 8))), 0, i
                )
                for i in range(rng.randint(1, 5))
            ]
            lcs_pool = LcsPool([s.tokens for s in pool])
            expected = exhaustive_argmax(refs, pool, "f1")
            assert oracle_picks(refs, pool) == expected
            by_key = {s.key: s for s in pool}
            assert oracle_extract(refs, pool, lcs_pool) == "\n".join(
                by_key[key].raw_text for key, _ in expected
            )
            pairs = build_pseudo_pairs(refs, pool, lcs_pool)
            assert [
                (tuple(p["src"]), p["score"]) for p in pairs["pairs"]
            ] == exhaustive_argmax(refs, pool, "recall")


def test_criterion_6_chunk_merge_round_trip():
    with criterion(6, "chunk/merge round trip on encounters up to 5000 sentences"):
        rng = random.Random(606)
        started = time.monotonic()
        for n_sents in (200, 1200, 5000):
            sents = []
            for i in range(n_sents):
                n_tokens = 1500 if rng.random() < 0.002 else rng.randint(1, 60)
                sents.append(
                    make_sentence(" ".join(f"w{k}" for k in range(n_tokens)), 0, i)
                )
            segments = chunk_encounter(sents, ChunkConfig(max_tokens=1024), "enc")
            assert all(segment_token_count(seg) <= 1024 for seg in segments)
            scores = {seg.segment_id: {key: 1.0 for key in seg.sentences} for seg in segments}
            merged = merge_scores(segments, scores)
            assert [s.key for s in merged] == [s.key for s in sents]
        assert time.monotonic() - started < 5.0


def test_criterion_7_threshold_sweep_optimality():
    with criterion(7, "sweep threshold attains the grid maximum"):
        rng = random.Random(707)
        for _ in range(10):
            validation = []
            for _ in range(rng.randint(1, 6)):
                scored = [
                    ScoredSentence(
                        (0, i),
                        rng.choice([0.0, 0.25, 0.5, rng.random()]),
                        " ".join(rng.choice("abcd") for _ in range(4)) + ".",
                    )
                    for i in range(rng.randint(1, 10))
                ]
                ref = tokenize(" ".join(rng.choice("abcd") for _ in range(6)) + ".")
                validation.append((scored, ref))
            result = sweep_threshold(validation)
            means = reevaluate_grid(validation, result["thresholds"])
            assert result["mean_rouge_l_f1"] == pytest.approx(means, abs=1e-12)
            chosen_idx = result["thresholds"].index(result["chosen_threshold"])
            assert means[chosen_idx] == max(means)
            for t, m in zip(result["thresholds"], means):
                if m == means[chosen_idx]:
                    assert result["chosen_threshold"] <= t


def _run_pipeline(root, seed=13):
    notes = root / "notes.jsonl"
    dataset = root / "data"
    report = root / "report"
    steps = [
        ["synth-corpus", "--out", str(notes), "--encounters", "50", "--seed", "7"],
        ["build-dataset", "--notes", str(notes), "--out", str(dataset),
         "--seed", str(seed), "--require-admission"],
        ["oracle", "--dataset", str(dataset), "--split", "test",
         "--out", str(root / "sys_oracle.jsonl")],
        ["rule-baseline", "--dataset", str(dataset), "--split", "test",
         "--out", str(root / "sys_rule.jsonl")],
        ["evaluate", "--dataset", str(dataset), "--systems", str(root / "sys_*.jsonl"),
         "--split", "test", "--out", str(report)],
    ]
    for step in steps:
        assert main(["--quiet"] + step) == 0, step[0]
    return dataset, report


def test_criterion_8_end_to_end_synthetic_run(tmp_path):
    with criterion(8, "end-to-end synthetic run under 60 s"):
        started = time.monotonic()
        dataset, report = _run_pipeline(tmp_path)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0

        splits = read_jsonl(dataset / "splits.jsonl")
        counts = {}
        for row in splits:
            counts[row["split"]] = counts.get(row["split"], 0) + 1
        assert counts == {"train": 40, "validation": 5, "test": 5}

        with open(report / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len({r["section"] for r in rows}) == 7
        oracle_rows = [r for r in rows if r["system"] == "oracle_ext"]
        assert len(oracle_rows) == 7
        for row in oracle_rows:
            assert float(row["rougeL_f1"]) == 1.0


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "identical seeds produce byte-identical outputs"):
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        first.mkdir()
        second.mkdir()
        _run_pipeline(first, seed=21)
        _run_pipeline(second, seed=21)
        files = sorted(
            p.relative_to(first) for p in first.rglob("*") if p.is_file()
        )
        assert files == sorted(
            p.relative_to(second) for p in second.rglob("*") if p.is_file()
        )
        for rel in files:
            assert filecmp.cmp(first / rel, second / rel, shallow=False), rel
