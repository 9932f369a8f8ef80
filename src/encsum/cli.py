"""Command-line surface tying dataset construction, baselines, pipeline plumbing,
and evaluation together.

Exit codes: 0 success, 1 fatal error, 2 usage error. All logging goes to
standard error; ``--quiet`` suppresses nonfatal warnings.
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import math
import sys
from pathlib import Path

from . import dataset as ds
from .corpus import SPLIT_NAMES, source_sentences
from .evaluate import AnnotatedEntities, GazetteerEntities, score_section
from .faithfulness import (
    DEFAULT_BETA,
    Gazetteer,
    ingest_entity_annotations,
    load_default_gazetteer,
)
from .jsonl import read_jsonl, write_jsonl
from .labeling import build_pseudo_pairs, oracle_extract
from .pipeline import (
    ChunkConfig,
    ScoredSentence,
    Segment,
    apply_cutoff,
    chunk_encounter,
    merge_scores,
    summary_text,
    sweep_threshold,
)
from .reports import MetricReport, write_report
from .sections import SectionName, load_rules, rule_based_extract_from_priors
from .synthetic import write_corpus
from .textproc import Sentence, split_sentences

logger = logging.getLogger("encsum")

ORACLE_SYSTEM = "oracle_ext"
RULE_SYSTEM = "rule_based_ext"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.ERROR if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        logger.error("%s", exc)
        return 1


def _sections_arg(value: str) -> list[SectionName]:
    if value == "all":
        return list(SectionName)
    return [SectionName(value)]


def _ratios_arg(value: str) -> tuple[float, float, float]:
    parts = [float(p) for p in value.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ratios must be three comma-separated fractions")
    return (parts[0], parts[1], parts[2])


def _beta_arg(value: str) -> float:
    beta = float(value)
    if not (math.isfinite(beta) and beta > 0):
        raise argparse.ArgumentTypeError(f"beta must be a finite number above 0, got {value!r}")
    return beta


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="encsum",
        description="Clinical-encounter summarization datasets, pipeline plumbing, and evaluation.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress nonfatal warnings")
    parser.add_argument("--mask-deid", action="store_true",
                        help="collapse bracketed de-identification placeholders to one token")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="write a deterministic synthetic notes file")
    p.add_argument("--out", required=True)
    p.add_argument("--encounters", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_synth_corpus)

    p = sub.add_parser("build-dataset", help="ingest notes and build a dataset directory")
    p.add_argument("--notes", required=True)
    p.add_argument("--rules", default=None, help="header rules JSON (default: packaged rules)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratios", type=_ratios_arg, default=(0.8, 0.1, 0.1))
    p.add_argument("--require-admission", action="store_true")
    p.set_defaults(func=_cmd_build_dataset)

    for name, helptext in (
        ("oracle", "oracle extractive summaries (system oracle_ext)"),
        ("pseudo-labels", "pseudo sentence-pair training labels"),
        ("rule-baseline", "rule-based section extraction from prior notes (system rule_based_ext)"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--dataset", required=True)
        p.add_argument("--section", type=_sections_arg, default="all",
                       help="section name or 'all'")
        p.add_argument("--split", default="train" if name == "pseudo-labels" else "test",
                       choices=SPLIT_NAMES)
        p.add_argument("--out", required=True)
        if name == "rule-baseline":
            p.add_argument("--rules", default=None)
    sub.choices["oracle"].set_defaults(func=_cmd_oracle)
    sub.choices["pseudo-labels"].set_defaults(func=_cmd_pseudo_labels)
    sub.choices["rule-baseline"].set_defaults(func=_cmd_rule_baseline)

    p = sub.add_parser("chunk", help="split encounters into token-bounded segments")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=SPLIT_NAMES)
    p.add_argument("--max-tokens", type=int, default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_chunk)

    p = sub.add_parser("merge-scores", help="merge per-segment scores back into source order")
    p.add_argument("--segments", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_merge_scores)

    p = sub.add_parser("sweep", help="sweep the score cutoff on validation ROUGE-L")
    p.add_argument("--dataset", required=True)
    p.add_argument("--section", type=SectionName, required=True)
    p.add_argument("--split", default="validation", choices=SPLIT_NAMES)
    p.add_argument("--merged", required=True, help="merged scored-sentence JSONL")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("cutoff", help="apply a score cutoff and emit system summaries")
    p.add_argument("--merged", required=True)
    p.add_argument("--section", type=SectionName, required=True)
    p.add_argument("--system", default="external_ext")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=float)
    group.add_argument("--sweep", dest="sweep_file", help="sweep result JSON to take the threshold from")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cutoff)

    p = sub.add_parser("evaluate", help="score system summaries with ROUGE and faithfulness")
    p.add_argument("--dataset", required=True)
    p.add_argument("--systems", required=True, help="glob of system summary JSONL files")
    p.add_argument("--split", default="test", choices=SPLIT_NAMES)
    p.add_argument("--section", type=_sections_arg, default="all")
    entities = p.add_mutually_exclusive_group()
    entities.add_argument("--gazetteer", default=None,
                          help="entity term file (default: packaged gazetteer)")
    entities.add_argument("--annotations", default=None, help="entity annotations JSONL")
    p.add_argument("--beta", type=_beta_arg, default=DEFAULT_BETA,
                   help="F_beta recall weight, a finite number above 0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def _cmd_synth_corpus(args) -> int:
    count = write_corpus(args.out, n_encounters=args.encounters, seed=args.seed)
    logger.info("wrote %d notes to %s", count, args.out)
    return 0


def _cmd_build_dataset(args) -> int:
    rules = load_rules(args.rules)
    manifest = ds.build_dataset(
        args.notes,
        rules,
        args.out,
        seed=args.seed,
        ratios=args.ratios,
        require_admission=args.require_admission,
        mask_deid=args.mask_deid,
    )
    logger.info(
        "built dataset: %d encounters, subjects %s",
        manifest["encounters"],
        manifest["subjects"],
    )
    return 0


def _iter_instances(args, sections):
    """Yield (encounter, section, instance) for the requested dataset slice."""
    encounters = ds.load_encounters(args.dataset)
    for section in sections:
        for instance in ds.load_section_instances(args.dataset, section, args.split):
            encounter = encounters.get(instance.encounter_id)
            if encounter is None:
                logger.warning("no encounter record for %s; skipping", instance.encounter_id)
                continue
            yield encounter, section, instance


def _aligned_instances(args):
    """Yield (instance, section, reference sentences, source pool) for alignment.

    Each encounter's source pool is segmented once per command and shared by
    all of its sections.
    """
    pools: dict[str, list[Sentence]] = {}
    for encounter, section, instance in _iter_instances(args, args.section):
        refs = split_sentences(instance.reference_text, mask_deid=args.mask_deid)
        pool = pools.get(encounter.encounter_id)
        if pool is None:
            pool = source_sentences(encounter, mask_deid=args.mask_deid)
            pools[encounter.encounter_id] = pool
        if not refs or not pool:
            logger.warning(
                "skipping %s/%s: empty %s",
                instance.encounter_id, section.value,
                "reference" if not refs else "source pool",
            )
            continue
        yield instance, section, refs, pool


def _cmd_oracle(args) -> int:
    rows = [
        ds.summary_record(
            instance.encounter_id, section, ORACLE_SYSTEM, oracle_extract(refs, pool).summary_text
        )
        for instance, section, refs, pool in _aligned_instances(args)
    ]
    write_jsonl(args.out, rows)
    logger.info("wrote %d oracle summaries to %s", len(rows), args.out)
    return 0


def _cmd_pseudo_labels(args) -> int:
    rows = [
        build_pseudo_pairs(refs, pool).to_record(instance.encounter_id, section.value)
        for instance, section, refs, pool in _aligned_instances(args)
    ]
    write_jsonl(args.out, rows)
    logger.info("wrote %d label records to %s", len(rows), args.out)
    return 0


def _cmd_rule_baseline(args) -> int:
    rules = load_rules(args.rules)
    rows = []
    for encounter, section, instance in _iter_instances(args, args.section):
        text = rule_based_extract_from_priors(encounter, section, rules)
        if text is None:
            continue
        rows.append(ds.summary_record(instance.encounter_id, section, RULE_SYSTEM, text))
    write_jsonl(args.out, rows)
    logger.info("wrote %d rule-based summaries to %s", len(rows), args.out)
    return 0


def _cmd_chunk(args) -> int:
    encounters = ds.load_encounters(args.dataset)
    splits = ds.load_splits(args.dataset)
    cfg = ChunkConfig(max_tokens=args.max_tokens)
    rows = []
    for encounter_id in sorted(encounters):
        encounter = encounters[encounter_id]
        if splits.get(encounter.subject_id) != args.split:
            continue
        pool = source_sentences(encounter, mask_deid=args.mask_deid)
        for segment in chunk_encounter(pool, cfg, encounter_id):
            rows.append(segment.to_record())
    write_jsonl(args.out, rows)
    logger.info("wrote %d segments to %s", len(rows), args.out)
    return 0


def _read_segments(path: str | Path) -> list[Segment]:
    segments = []
    for row in read_jsonl(path):
        sentences = tuple((s["doc"], s["sent"]) for s in row["sentences"])
        texts = tuple(s["text"] for s in row["sentences"])
        segments.append(Segment(row["segment_id"], row["encounter_id"], sentences, texts))
    return segments


def _cmd_merge_scores(args) -> int:
    segments = _read_segments(args.segments)
    score_rows = read_jsonl(args.scores)
    per_segment = {
        row["segment_id"]: [
            ScoredSentence(
                (s["doc"], s["sent"]),
                _finite_score(s, args.scores, f"segment {row['segment_id']}"),
                "",
            )
            for s in row["scores"]
        ]
        for row in score_rows
    }
    by_encounter: dict[str, list[Segment]] = {}
    for segment in segments:
        by_encounter.setdefault(segment.encounter_id, []).append(segment)
    rows = []
    for encounter_id in sorted(by_encounter):
        merged = merge_scores(by_encounter[encounter_id], per_segment)
        rows.append(
            {
                "encounter_id": encounter_id,
                "sentences": [
                    {"doc": s.key[0], "sent": s.key[1], "score": s.score, "text": s.text}
                    for s in merged
                ],
            }
        )
    write_jsonl(args.out, rows)
    logger.info("merged scores for %d encounters to %s", len(rows), args.out)
    return 0


def _read_merged(path: str | Path) -> dict[str, list[ScoredSentence]]:
    out = {}
    for row in read_jsonl(path):
        out[row["encounter_id"]] = [
            ScoredSentence(
                (s["doc"], s["sent"]),
                _finite_score(s, path, f"encounter {row['encounter_id']}"),
                s["text"],
            )
            for s in row["sentences"]
        ]
    return out


def _finite_score(sentence: dict, path: str | Path, owner: str) -> float:
    """The sentence record's score; a bool, non-number, NaN or infinity is fatal."""
    score = sentence["score"]
    if isinstance(score, bool) or not isinstance(score, (int, float)) or not math.isfinite(score):
        raise ValueError(
            f"{path}: {owner}, sentence ({sentence['doc']}, {sentence['sent']}): "
            f"score must be a finite number, got {score!r}"
        )
    return score


def _cmd_sweep(args) -> int:
    merged = _read_merged(args.merged)
    instances = []
    for instance in ds.load_section_instances(args.dataset, args.section, args.split):
        scored = merged.get(instance.encounter_id)
        if scored is None:
            logger.warning("no scores for encounter %s; skipping", instance.encounter_id)
            continue
        instances.append(
            (scored, split_sentences(instance.reference_text, mask_deid=args.mask_deid))
        )
    if not instances:
        raise ValueError("no validation instances with scores to sweep")
    result = sweep_threshold(instances, mask_deid=args.mask_deid)
    record = {"section": args.section.value, **result.to_record()}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    logger.info(
        "chose threshold %.6f over %d candidates", result.chosen_threshold, len(result.thresholds)
    )
    return 0


def _cmd_cutoff(args) -> int:
    if args.threshold is not None:
        threshold = args.threshold
    else:
        threshold = json.loads(Path(args.sweep_file).read_text("utf-8"))["chosen_threshold"]
    merged = _read_merged(args.merged)
    rows = []
    for encounter_id in sorted(merged):
        kept = apply_cutoff(merged[encounter_id], threshold)
        rows.append(
            ds.summary_record(encounter_id, args.section, args.system, summary_text(kept))
        )
    write_jsonl(args.out, rows)
    logger.info("wrote %d cutoff summaries (threshold %.6f) to %s", len(rows), threshold, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    summary_files = sorted(glob.glob(args.systems))
    if not summary_files:
        raise ValueError(f"no summary files match {args.systems!r}")
    summaries = ds.read_system_summaries(summary_files)
    if args.annotations is not None:
        entities = AnnotatedEntities(ingest_entity_annotations(args.annotations))
    elif args.gazetteer is not None:
        entities = GazetteerEntities(Gazetteer.from_file(args.gazetteer))
    else:
        entities = GazetteerEntities(load_default_gazetteer())
    encounters = ds.load_encounters(args.dataset)
    rows = []
    for section in args.section:
        instances = ds.load_section_instances(args.dataset, section, args.split)
        if not instances:
            logger.warning("no %s instances in split %s", section.value, args.split)
            continue
        rows += score_section(
            instances, encounters, summaries, entities, args.beta, mask_deid=args.mask_deid
        )
    if not rows:
        raise ValueError("nothing to evaluate: no instances in the requested sections/split")
    paths = write_report(MetricReport(tuple(rows)), args.out)
    logger.info("wrote report to %s", paths["table"].parent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
