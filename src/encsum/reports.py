"""Metric report assembly and emission: aligned text tables, CSV, and plot data.

Tables print percentages with one decimal (zero-padded, e.g. ``07.3``); the
CSV keeps full float precision. Plot data is long-form CSV with one row per
(section, system, metric) point for score-vs-output-length curves.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Mapping, Sequence

from .jsonl import write_text
from .sections import SECTION_ORDER

PLOT_METRICS = ("rouge_l_f1", "incorrect_hallucination_rate")

_CSV_COLUMNS = (
    "section",
    "system",
    "instances",
    "rouge1_p", "rouge1_r", "rouge1_f1",
    "rouge2_p", "rouge2_r", "rouge2_f1",
    "rougeL_p", "rougeL_r", "rougeL_f1",
    "fa_precision", "fa_recall", "fa_f_beta", "beta",
    "incorrect_hallucination_rate",
    "empty_system", "empty_relevant",
    "mean_output_words", "mean_output_sentences",
)


@dataclass(frozen=True)
class ReportRow:
    section: str
    system: str
    instances: int
    rouge1: tuple[float, float, float]
    rouge2: tuple[float, float, float]
    rouge_l: tuple[float, float, float]
    fa_precision: float
    fa_recall: float
    fa_f_beta: float
    beta: float
    incorrect_hallucination_rate: float
    empty_system: int
    empty_relevant: int
    mean_output_words: float
    mean_output_sentences: float

    def to_record(self) -> dict:
        return {
            "section": self.section,
            "system": self.system,
            "instances": self.instances,
            "rouge1_p": self.rouge1[0], "rouge1_r": self.rouge1[1], "rouge1_f1": self.rouge1[2],
            "rouge2_p": self.rouge2[0], "rouge2_r": self.rouge2[1], "rouge2_f1": self.rouge2[2],
            "rougeL_p": self.rouge_l[0], "rougeL_r": self.rouge_l[1], "rougeL_f1": self.rouge_l[2],
            "fa_precision": self.fa_precision,
            "fa_recall": self.fa_recall,
            "fa_f_beta": self.fa_f_beta,
            "beta": self.beta,
            "incorrect_hallucination_rate": self.incorrect_hallucination_rate,
            "empty_system": self.empty_system,
            "empty_relevant": self.empty_relevant,
            "mean_output_words": self.mean_output_words,
            "mean_output_sentences": self.mean_output_sentences,
        }


@dataclass(frozen=True)
class MetricReport:
    rows: tuple[ReportRow, ...]

    def __post_init__(self):
        keys = [(r.section, r.system) for r in self.rows]
        if len(keys) != len(set(keys)):
            raise ValueError("duplicate (section, system) rows in report")

    def sorted_rows(self) -> list[ReportRow]:
        order = {s.value: i for i, s in enumerate(SECTION_ORDER)}
        return sorted(
            self.rows,
            key=lambda r: (order.get(r.section, len(order)), r.section, r.system),
        )


def _pct(value: float) -> str:
    return f"{100 * value:04.1f}"


def _prf(triple: tuple[float, float, float]) -> str:
    return "/".join(_pct(v) for v in triple)


def render_table(report: MetricReport) -> str:
    """Aligned plain-text table in P/R/F percent form, one row per (section, system)."""
    headers = (
        "section", "system", "n",
        "rouge-1", "rouge-2", "rouge-L",
        "faith P/R/Fb", "halluc", "deg",
        "words", "sents",
    )
    rows = []
    for r in report.sorted_rows():
        rows.append((
            r.section,
            r.system,
            str(r.instances),
            _prf(r.rouge1),
            _prf(r.rouge2),
            _prf(r.rouge_l),
            _prf((r.fa_precision, r.fa_recall, r.fa_f_beta)),
            _pct(r.incorrect_hallucination_rate),
            f"{r.empty_system}/{r.empty_relevant}",
            f"{r.mean_output_words:.1f}",
            f"{r.mean_output_sentences:.1f}",
        ))
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def render_csv(report: MetricReport) -> str:
    buf = StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in report.sorted_rows():
        writer.writerow({k: _csv_cell(v) for k, v in row.to_record().items()})
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_plot_data(report: MetricReport) -> str:
    """Long-form CSV for score-vs-output-length curves, one metric value per row."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("section", "mean_output_words", "system", "metric", "value"))
    rows = report.sorted_rows()
    for metric in PLOT_METRICS:
        for r in sorted(rows, key=lambda r: (r.system, r.mean_output_words, r.section)):
            value = r.to_record()["rougeL_f1" if metric == "rouge_l_f1" else metric]
            writer.writerow(
                (r.section, repr(r.mean_output_words), r.system, metric, repr(value))
            )
    return buf.getvalue()


def render_stats_csv(per_section: Mapping[str, Mapping], splits: Sequence[str]) -> str:
    """Corpus statistics table: per-split counts and mean output lengths per section."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("section", *splits, "mean_words", "mean_sentences"))
    order = {s.value: i for i, s in enumerate(SECTION_ORDER)}
    for name in sorted(per_section, key=lambda n: (order.get(n, len(order)), n)):
        stats = per_section[name]
        counts = stats["counts"]
        writer.writerow(
            (
                name,
                *(counts.get(split, 0) for split in splits),
                "" if stats["mean_words"] is None else repr(stats["mean_words"]),
                "" if stats["mean_sentences"] is None else repr(stats["mean_sentences"]),
            )
        )
    return buf.getvalue()


def write_report(report: MetricReport, out_dir: str | Path) -> dict[str, Path]:
    out_dir = Path(out_dir)
    paths = {
        "table": out_dir / "report.txt",
        "csv": out_dir / "report.csv",
        "plot": out_dir / "plot_data.csv",
    }
    write_text(paths["table"], render_table(report))
    write_text(paths["csv"], render_csv(report))
    write_text(paths["plot"], render_plot_data(report))
    return paths
