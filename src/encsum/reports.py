"""The evaluation report: an aligned text table, ``report.csv`` and plot data.

Each :class:`ReportRow` is one (section, system) row, and its fields are the
columns of ``report.csv``, in order. Its metric values are column means of the
per-instance scores that :mod:`encsum.evaluate` computes (sums for the two
empty counts). Tables print percentages with one decimal (zero-padded, e.g.
``07.3``); the CSV keeps full float precision. Plot data is long-form CSV with
one row per (section, system, metric) point for score-vs-output-length curves.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from io import StringIO
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import SPLIT_NAMES
from .jsonl import write_text
from .sections import SectionName


@dataclass(frozen=True)
class ReportRow:
    """One (section, system) row; the fields are the ``report.csv`` columns."""

    section: str
    system: str
    instances: int
    rouge1_p: float
    rouge1_r: float
    rouge1_f1: float
    rouge2_p: float
    rouge2_r: float
    rouge2_f1: float
    rougeL_p: float
    rougeL_r: float
    rougeL_f1: float
    fa_precision: float
    fa_recall: float
    fa_f_beta: float
    beta: float
    incorrect_hallucination_rate: float
    empty_system: int
    empty_relevant: int
    mean_output_words: float
    mean_output_sentences: float


_CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))

# (plot data metric name, ReportRow column)
PLOT_METRICS = (
    ("rouge_l_f1", "rougeL_f1"),
    ("incorrect_hallucination_rate", "incorrect_hallucination_rate"),
)


_SECTION_RANK = {s.value: i for i, s in enumerate(SectionName)}


def _sorted(rows: Sequence[ReportRow]) -> list[ReportRow]:
    """Rows in ``SectionName`` order, then by system."""
    return sorted(rows, key=lambda r: (_SECTION_RANK[r.section], r.system))


def _pct(value: float) -> str:
    return f"{100 * value:04.1f}"


def _prf(*values: float) -> str:
    return "/".join(_pct(v) for v in values)


def render_table(rows: Sequence[ReportRow]) -> str:
    """Aligned plain-text table in P/R/F percent form, one row per (section, system)."""
    headers = (
        "section", "system", "n",
        "rouge-1", "rouge-2", "rouge-L",
        "faith P/R/Fb", "halluc", "deg",
        "words", "sents",
    )
    cells = [
        (
            r.section,
            r.system,
            str(r.instances),
            _prf(r.rouge1_p, r.rouge1_r, r.rouge1_f1),
            _prf(r.rouge2_p, r.rouge2_r, r.rouge2_f1),
            _prf(r.rougeL_p, r.rougeL_r, r.rougeL_f1),
            _prf(r.fa_precision, r.fa_recall, r.fa_f_beta),
            _pct(r.incorrect_hallucination_rate),
            f"{r.empty_system}/{r.empty_relevant}",
            f"{r.mean_output_words:.1f}",
            f"{r.mean_output_sentences:.1f}",
        )
        for r in _sorted(rows)
    ]
    widths = [max([len(h), *(len(row[i]) for row in cells)]) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def render_csv(rows: Sequence[ReportRow]) -> str:
    """``report.csv``: a header of ``ReportRow``'s field names, then one line per row."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in _sorted(rows):
        writer.writerow(_csv_cell(v) for v in astuple(row))
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_plot_data(rows: Sequence[ReportRow]) -> str:
    """Long-form CSV for score-vs-output-length curves, one metric value per row."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("section", "mean_output_words", "system", "metric", "value"))
    for metric, column in PLOT_METRICS:
        for r in sorted(rows, key=lambda r: (r.system, r.mean_output_words, r.section)):
            writer.writerow((
                r.section, repr(r.mean_output_words), r.system, metric, repr(getattr(r, column))
            ))
    return buf.getvalue()


def render_stats_csv(per_section: Mapping[str, Mapping]) -> str:
    """Corpus statistics table: per-split counts and mean output lengths per section."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("section", *SPLIT_NAMES, "mean_words", "mean_sentences"))
    for name in sorted(per_section, key=_SECTION_RANK.__getitem__):
        stats = per_section[name]
        counts = stats["counts"]
        writer.writerow(
            (
                name,
                *(counts.get(split, 0) for split in SPLIT_NAMES),
                "" if stats["mean_words"] is None else repr(stats["mean_words"]),
                "" if stats["mean_sentences"] is None else repr(stats["mean_sentences"]),
            )
        )
    return buf.getvalue()


def write_report(rows: Sequence[ReportRow], out_dir: str | Path) -> None:
    """Write ``report.txt``, ``report.csv`` and ``plot_data.csv`` into ``out_dir``."""
    out_dir = Path(out_dir)
    write_text(out_dir / "report.txt", render_table(rows))
    write_text(out_dir / "report.csv", render_csv(rows))
    write_text(out_dir / "plot_data.csv", render_plot_data(rows))
