"""Command-line surface tying dataset construction, baselines, pipeline plumbing,
and evaluation together.

Exit codes: 0 success, 1 fatal error, 2 usage error. All logging goes to
standard error; ``--quiet`` suppresses nonfatal warnings.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys

from .corpus import SPLIT_NAMES, check_finite, check_split_ratios
from .dataset import build_dataset
from .evaluate import write_evaluation
from .faithfulness import DEFAULT_BETA
from .labeling import write_oracle_summaries, write_pseudo_labels, write_rule_summaries
from .pipeline import (
    read_sweep_threshold,
    write_cutoff_summaries,
    write_merged_scores,
    write_segments,
    write_sweep,
)
from .sections import SectionName, load_rules
from .synthetic import write_corpus

logger = logging.getLogger("encsum")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # This call's stderr handler, at this call's level, on encsum's logger for
    # the call only: handlers installed by others (a root handler, pytest's
    # caplog) stay, and a later call's --quiet is its own.
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.ERROR if args.quiet else logging.INFO)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(handler)
    # The command function is looked up on each call rather than kept in the
    # parser, which is built once per process: a wrapper bound to its name
    # after the first call is still the one that runs.
    command = globals()[f"_cmd_{args.command.replace('-', '_')}"]
    try:
        return command(args)
    except (OSError, ValueError) as exc:
        logger.error("%s", exc)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _sections_arg(value: str) -> list[SectionName]:
    if value == "all":
        return list(SectionName)
    return [SectionName(value)]


def _ratios_arg(value: str) -> tuple[float, float, float]:
    try:
        return check_split_ratios([float(p) for p in value.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{exc}; give three comma-separated fractions such as 0.8,0.1,0.1"
        ) from None


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        number = None
    if number is None or number < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {value!r}")
    return number


def _finite_arg(value: str) -> float:
    try:
        return check_finite(float(value), "value")
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {value!r}") from None


def _beta_arg(value: str) -> float:
    beta = _finite_arg(value)
    if beta <= 0:
        raise argparse.ArgumentTypeError(f"beta must be above 0, got {value!r}")
    return beta


@functools.cache
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
    p.add_argument("--encounters", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("build-dataset", help="ingest notes and build a dataset directory")
    p.add_argument("--notes", required=True)
    p.add_argument("--rules", default=None, help="header rules JSON (default: packaged rules)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratios", type=_ratios_arg, default=(0.8, 0.1, 0.1))
    p.add_argument("--require-admission", action="store_true")

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

    p = sub.add_parser("chunk", help="split encounters into token-bounded segments")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=SPLIT_NAMES)
    p.add_argument("--max-tokens", type=_positive_int, default=1024)
    p.add_argument("--out", required=True)

    p = sub.add_parser("merge-scores", help="merge per-segment scores back into source order")
    p.add_argument("--segments", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="sweep the score cutoff on validation ROUGE-L")
    p.add_argument("--dataset", required=True)
    p.add_argument("--section", type=SectionName, required=True)
    p.add_argument("--split", default="validation", choices=SPLIT_NAMES)
    p.add_argument("--merged", required=True, help="merged scored-sentence JSONL")
    p.add_argument("--out", required=True)

    p = sub.add_parser("cutoff", help="apply a score cutoff and emit system summaries")
    p.add_argument("--merged", required=True)
    p.add_argument("--section", type=SectionName, required=True)
    p.add_argument("--system", default="external_ext")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=_finite_arg)
    group.add_argument("--sweep", dest="sweep_file", help="sweep result JSON to take the threshold from")
    p.add_argument("--out", required=True)

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

    return parser


def _cmd_synth_corpus(args) -> int:
    count = write_corpus(args.out, n_encounters=args.encounters, seed=args.seed)
    logger.info("wrote %d notes to %s", count, args.out)
    return 0


def _cmd_build_dataset(args) -> int:
    manifest = build_dataset(
        args.notes,
        load_rules(args.rules),
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


def _cmd_oracle(args) -> int:
    count = write_oracle_summaries(
        args.dataset, args.section, args.split, args.out, mask_deid=args.mask_deid
    )
    logger.info("wrote %d oracle summaries to %s", count, args.out)
    return 0


def _cmd_pseudo_labels(args) -> int:
    count = write_pseudo_labels(
        args.dataset, args.section, args.split, args.out, mask_deid=args.mask_deid
    )
    logger.info("wrote %d label records to %s", count, args.out)
    return 0


def _cmd_rule_baseline(args) -> int:
    count = write_rule_summaries(
        args.dataset, args.section, args.split, load_rules(args.rules), args.out
    )
    logger.info("wrote %d rule-based summaries to %s", count, args.out)
    return 0


def _cmd_chunk(args) -> int:
    count = write_segments(
        args.dataset, args.split, args.max_tokens, args.out, mask_deid=args.mask_deid
    )
    logger.info("wrote %d segments to %s", count, args.out)
    return 0


def _cmd_merge_scores(args) -> int:
    count = write_merged_scores(args.segments, args.scores, args.out)
    logger.info("merged scores for %d encounters to %s", count, args.out)
    return 0


def _cmd_sweep(args) -> int:
    result = write_sweep(
        args.dataset, args.section, args.split, args.merged, args.out, mask_deid=args.mask_deid
    )
    logger.info(
        "chose threshold %.6f over %d candidates",
        result["chosen_threshold"], len(result["thresholds"]),
    )
    return 0


def _cmd_cutoff(args) -> int:
    if args.threshold is not None:
        threshold = args.threshold
    else:
        threshold = read_sweep_threshold(args.sweep_file, args.section)
    count = write_cutoff_summaries(args.merged, args.section, args.system, threshold, args.out)
    logger.info("wrote %d cutoff summaries (threshold %.6f) to %s", count, threshold, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    count = write_evaluation(
        args.dataset,
        args.systems,
        args.split,
        args.section,
        args.out,
        annotations=args.annotations,
        gazetteer=args.gazetteer,
        beta=args.beta,
        mask_deid=args.mask_deid,
    )
    logger.info("wrote %d report rows to %s", count, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
