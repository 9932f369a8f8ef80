"""The benchmark's workloads: inputs, the CLI stage sequence, and output checks.

Each workload runs ``encsum.cli.main`` in-process, one stage at a time, as a
closed loop with a single client: the next stage starts when the previous one
returns. Every stage call counts as one attempted operation; it fails when it
exits non-zero, when its output check fails, or when its outputs differ from
those of the first pass of the run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from perfbench import inputs

SECTIONS = (
    "chief_complaint",
    "family_history",
    "social_history",
    "medications_on_admission",
    "past_medical_history",
    "history_of_present_illness",
    "brief_hospital_course",
)
LONG_SECTION = "brief_hospital_course"
# Synthetic admission notes carry every section header but this one, so the
# rule baseline finds exactly these sections in the prior notes.
ADMISSION_SECTIONS = tuple(s for s in SECTIONS if s != LONG_SECTION)
MAX_TOKENS = "1024"


@dataclass
class Stage:
    """One CLI call. ``check`` returns problems found in its outputs."""

    name: str
    argv: list[str]
    outputs: Callable[[], list[Path]]
    check: Callable[[], list[str]] = lambda: []
    after: Callable[[], None] | None = None  # untimed step, e.g. the planted scorer


@dataclass
class Workload:
    name: str
    encounters: int
    work: Path
    seed: int
    generated: list = field(default_factory=list)

    @property
    def notes_path(self) -> Path:
        return self.work / "notes.jsonl"

    @property
    def data(self) -> Path:
        return self.work / "data"

    def notes(self) -> list:
        return inputs.short_stay_notes(self.encounters, self.seed)

    def setup(self, main) -> None:
        """Generate and write the notes; subclasses may build more."""
        self.generated = self.notes()
        inputs.write_notes(self.notes_path, self.generated)

    def stages(self) -> list[Stage]:
        raise NotImplementedError

    def build_argv(self, *extra: str) -> list[str]:
        return [
            "build-dataset", "--notes", str(self.notes_path), "--out", str(self.data),
            "--seed", str(self.seed), "--require-admission", *extra,
        ]

    def dataset_outputs(self) -> list[Path]:
        return sorted(p for p in self.data.rglob("*") if p.is_file())

    def check_manifest(self) -> list[str]:
        """Section files hold exactly the record counts the manifest lists."""
        manifest = _read_json(self.data / "manifest.json")
        problems = []
        if manifest["encounters"] != self.encounters:
            problems.append(f"manifest lists {manifest['encounters']} encounters, expected {self.encounters}")
        for section, per_split in manifest["section_counts"].items():
            for split, count in per_split.items():
                lines = _count_lines(self.data / "sections" / f"{section}__{split}.jsonl")
                if lines != count:
                    problems.append(f"{section}__{split}: {lines} records, manifest says {count}")
        return problems


class Ingest(Workload):
    def stages(self) -> list[Stage]:
        segments = self.work / "segments.jsonl"

        def check_chunk() -> list[str]:
            # The synthetic corpus has one encounter per subject.
            covered = {r["encounter_id"] for r in _read_jsonl(segments)}
            want = manifest_split(self.data, "train")
            return [] if len(covered) == want else [f"segments cover {len(covered)} encounters, expected {want}"]

        return [
            Stage("build_dataset", self.build_argv(), self.dataset_outputs, self.check_manifest),
            Stage(
                "chunk",
                ["chunk", "--dataset", str(self.data), "--split", "train",
                 "--max-tokens", MAX_TOKENS, "--out", str(segments)],
                lambda: [segments], check_chunk,
            ),
        ]


class Baselines(Workload):
    def stages(self) -> list[Stage]:
        systems = self.work / "systems"
        oracle = systems / "sys_oracle.jsonl"
        rule = systems / "sys_rule.jsonl"
        labels = self.work / "labels.jsonl"
        report = self.work / "report"
        common = ["--dataset", str(self.data), "--split", "train", "--section", "all"]

        def train_instances(sections) -> int:
            counts = _read_json(self.data / "manifest.json")["section_counts"]
            return sum(counts[s].get("train", 0) for s in sections)

        def check_count(path: Path, sections=SECTIONS) -> Callable[[], list[str]]:
            def check() -> list[str]:
                got, want = _count_lines(path), train_instances(sections)
                return [] if got == want else [f"{path.name}: {got} records, expected {want}"]
            return check

        def check_report() -> list[str]:
            rows = _read_csv(report / "report.csv")
            oracle_rows = {r["section"]: float(r["rougeL_f1"]) for r in rows if r["system"] == "oracle_ext"}
            problems = [] if len(rows) == 2 * len(SECTIONS) else [f"report has {len(rows)} rows"]
            for section in SECTIONS:
                f1 = oracle_rows.get(section)
                if f1 != 1.0:
                    problems.append(f"oracle ROUGE-L F1 on {section} is {f1}, expected 1.0")
            return problems

        return [
            Stage("build_dataset", self.build_argv(), self.dataset_outputs, self.check_manifest),
            Stage("oracle", ["oracle", *common, "--out", str(oracle)],
                  lambda: [oracle], check_count(oracle)),
            Stage("pseudo_labels", ["pseudo-labels", *common, "--out", str(labels)],
                  lambda: [labels], check_count(labels)),
            Stage("rule_baseline", ["rule-baseline", *common, "--out", str(rule)],
                  lambda: [rule], check_count(rule, ADMISSION_SECTIONS)),
            Stage(
                "evaluate",
                ["evaluate", "--dataset", str(self.data), "--systems", str(systems / "sys_*.jsonl"),
                 "--split", "train", "--out", str(report)],
                lambda: _report_files(report), check_report,
            ),
        ]


class ExtractLong(Workload):
    """Long stays, all in the validation split, through the extract pipeline."""

    def notes(self) -> list:
        return inputs.long_stay_notes(self.encounters, self.seed)

    def setup(self, main) -> None:
        super().setup(main)
        argv = ["--quiet", *self.build_argv("--ratios", "0,1,0")]
        if main(argv) != 0:
            raise RuntimeError("build-dataset failed during set-up")

    def stages(self) -> list[Stage]:
        segments = self.work / "segments.jsonl"
        scores = self.work / "scores.jsonl"
        merged = self.work / "merged.jsonl"
        sweep = self.work / "sweep.json"
        system = self.work / "systems" / "sys_cutoff.jsonl"
        report = self.work / "report"
        data = str(self.data)

        def check_chunk() -> list[str]:
            covered = {r["encounter_id"] for r in _read_jsonl(segments)}
            want = manifest_split(self.data, "validation")
            return [] if len(covered) == want else [f"segments cover {len(covered)} encounters, expected {want}"]

        def check_merge() -> list[str]:
            got, want = _count_lines(merged), manifest_split(self.data, "validation")
            return [] if got == want else [f"merged scores for {got} encounters, expected {want}"]

        def check_sweep() -> list[str]:
            record = _read_json(sweep)
            if not record["thresholds"] or len(record["thresholds"]) != len(record["mean_rouge_l_f1"]):
                return ["sweep result has mismatched thresholds and scores"]
            return []

        def check_cutoff() -> list[str]:
            got, want = _count_lines(system), manifest_split(self.data, "validation")
            return [] if got == want else [f"cutoff wrote {got} summaries, expected {want}"]

        def check_evaluate() -> list[str]:
            rows = _read_csv(report / "report.csv")
            best = max(_read_json(sweep)["mean_rouge_l_f1"])
            if len(rows) != 1:
                return [f"report has {len(rows)} rows, expected 1"]
            f1 = float(rows[0]["rougeL_f1"])
            return [] if f1 == best else [f"cutoff ROUGE-L F1 {f1!r} != sweep best {best!r}"]

        return [
            Stage(
                "chunk",
                ["chunk", "--dataset", data, "--split", "validation",
                 "--max-tokens", MAX_TOKENS, "--out", str(segments)],
                lambda: [segments], check_chunk,
                after=lambda: plant_scores(segments, self.data, scores, self.seed),
            ),
            Stage("merge_scores",
                  ["merge-scores", "--segments", str(segments), "--scores", str(scores), "--out", str(merged)],
                  lambda: [merged], check_merge),
            Stage("sweep",
                  ["sweep", "--dataset", data, "--section", LONG_SECTION, "--split", "validation",
                   "--merged", str(merged), "--out", str(sweep)],
                  lambda: [sweep], check_sweep),
            Stage("cutoff",
                  ["cutoff", "--merged", str(merged), "--section", LONG_SECTION, "--sweep", str(sweep),
                   "--system", "planted_ext", "--out", str(system)],
                  lambda: [system], check_cutoff),
            Stage(
                "evaluate",
                ["evaluate", "--dataset", data, "--systems", str(system), "--split", "validation",
                 "--section", LONG_SECTION, "--out", str(report)],
                lambda: _report_files(report), check_evaluate,
            ),
        ]


def plant_scores(segments: Path, data: Path, out: Path, seed: int) -> None:
    """Stand-in for an external sentence scorer.

    A sentence scores 0.5 if its text occurs in the encounter's reference
    section, plus 0.5 times a seeded uniform draw U. The windows of one
    hard-windowed sentence share their U, and within an encounter those
    sentences draw in antithetic pairs, U and 1 - U. Each U is still uniform,
    but the share of the long windowed text that a cutoff keeps, which is
    most of the sweep's work, no longer swings with the seed.
    """
    references = {
        r["encounter_id"]: r["text"]
        for r in _read_jsonl(data / "sections" / f"{LONG_SECTION}__validation.jsonl")
    }
    rows = _read_jsonl(segments)
    windows: dict[tuple, int] = {}
    for row in rows:
        for s in row["sentences"]:
            key = (row["encounter_id"], s["doc"], s["sent"])
            windows[key] = windows.get(key, 0) + 1
    by_encounter: dict[str, list[tuple]] = {}
    for key in sorted(k for k, n in windows.items() if n > 1):
        by_encounter.setdefault(key[0], []).append(key)
    rng = random.Random(f"perfbench-scores-{seed}")
    shared: dict[tuple, float] = {}
    for keys in by_encounter.values():
        for i, key in enumerate(keys):
            shared[key] = 1 - shared[keys[i - 1]] if i % 2 else rng.random()
    scored = []
    for row in rows:
        reference = references.get(row["encounter_id"], "")
        scores = []
        for s in row["sentences"]:
            key = (row["encounter_id"], s["doc"], s["sent"])
            u = shared[key] if key in shared else rng.random()
            scores.append({"doc": s["doc"], "sent": s["sent"], "score": 0.5 * (s["text"] in reference) + 0.5 * u})
        scored.append({"segment_id": row["segment_id"], "scores": scores})
    out.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in scored), encoding="utf-8")


# Encounters generated per workload; sized so one pass of the stage sequence
# takes a few seconds on a 2-core machine.
WORKLOADS = {"ingest": (Ingest, 1000), "baselines": (Baselines, 120), "extract-long": (ExtractLong, 6)}


def make(name: str, work: Path, seed: int) -> Workload:
    cls, encounters = WORKLOADS[name]
    return cls(name, encounters, work, seed)


def digest(paths: list[Path], root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in paths
    }


def manifest_split(data: Path, split: str) -> int:
    """Subjects the manifest lists in ``split``."""
    return _read_json(data / "manifest.json")["subjects"][split]


def _report_files(report: Path) -> list[Path]:
    return [report / "report.txt", report / "report.csv", report / "plot_data.csv"]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip())
