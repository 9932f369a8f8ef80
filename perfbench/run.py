"""encsum benchmark: runs one workload through the CLI in-process and prints its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

The inputs are generated from ``--seed``. Set-up (imports, input generation
and, on extract-long, the dataset build) runs ``SETUPS`` times; then passes of
the workload's stage sequence repeat until ``--seconds`` have gone by. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the per-layer
metrics. A fuller record, output digests included, goes to
``.perfbench_work/<workload>/result.json``; traced runs also write the spans
of their last traced pass to ``spans.csv`` there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracer as tr  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.inputs import measure_sizes  # noqa: E402
from perfbench.speed import SpeedSampler  # noqa: E402

SETUPS = 9
MIN_PASSES = 2
WARMUP_S = 0.3


@dataclass
class PassResult:
    times: dict[str, float]  # wall seconds per stage
    ref_times: dict[str, float]  # reference seconds per stage; empty in traced passes
    failed: dict[str, list[str]]
    digests: dict[str, dict[str, str]]
    trace: tr.PassTrace | None = None

    @property
    def seconds(self) -> float:
        return sum(self.times.values())

    @property
    def ref_seconds(self) -> float:
        return sum(self.ref_times.values())


def ops(passes: list[PassResult], stages: int) -> tuple[int, int]:
    """Stage calls attempted and failed over ``passes``."""
    return len(passes) * stages, sum(len(p.failed) for p in passes)


@dataclass
class Run:
    workload: workloads.Workload
    main: object
    stages: list
    passes: list[PassResult] = field(default_factory=list)

    def call(self, stage) -> object:
        try:
            return self.main(["--quiet", *stage.argv])
        except Exception:  # a crashing stage is a failed op, not a crashed benchmark
            traceback.print_exc()
            return "exception"

    def run_pass(self, tracer: tr.Tracer | None, sampler: SpeedSampler | None) -> PassResult:
        """One pass of the stage sequence, traced or speed-sampled, then its checks."""
        times: dict[str, float] = {}
        ref_times: dict[str, float] = {}
        exits: dict[str, object] = {}
        if tracer is not None:
            tracer.begin_pass()
        for stage in self.stages:
            if sampler is not None:
                exits[stage.name], times[stage.name], ref_times[stage.name] = sampler.timed(
                    lambda: self.call(stage)
                )
            else:
                t0 = perf_counter()
                exits[stage.name] = self.call(stage)
                times[stage.name] = perf_counter() - t0
            if stage.after is not None:
                stage.after()
        trace = tracer.end_pass() if tracer is not None else None
        failed: dict[str, list[str]] = {}
        digests: dict[str, dict[str, str]] = {}
        reference = self.passes[0].digests if self.passes else None
        for stage in self.stages:
            problems = [] if exits[stage.name] == 0 else [f"exit status {exits[stage.name]}"]
            try:
                problems += stage.check()
                digests[stage.name] = workloads.digest(stage.outputs(), self.workload.work)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            if reference is not None and digests.get(stage.name) != reference.get(stage.name):
                problems.append("outputs differ from the first pass")
            if problems:
                failed[stage.name] = problems
        result = PassResult(times, ref_times, failed, digests, trace)
        self.passes.append(result)
        return result


def fresh_import():
    """Import encsum.cli from the checkout's source tree, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "encsum" or n.startswith("encsum.")]:
        del sys.modules[name]
    cli = importlib.import_module("encsum.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"encsum imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile with >= 10 samples beyond it."""
    out = {"median": median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = quantiles(values, n=100)[pct - 1]
            break
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    encounters = run.workload.encounters
    return {
        "setup_s": metric(median(setup_times), "s"),
        "enc_per_ref_s": metric(
            median(encounters / p.ref_seconds for p in run.passes if p.trace is None), "enc/ref-s"
        ),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Run, sizes) -> dict:
    untraced = [p for p in run.passes if p.trace is None]
    traced = [p for p in run.passes if p.trace is not None]
    encounters = run.workload.encounters
    out: dict[str, dict] = {}

    def stat(name: str, i: int) -> float:
        return median(p.trace.stats.get(name, (0, 0.0, 0.0))[i] for p in traced)

    def count(name: str) -> float:
        return median(p.trace.counters.get(name, 0) for p in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for name in tr.function_names():
        out[f"{name}.calls"] = metric(stat(name, 0), "count")
        out[f"{name}.total_s"] = metric(stat(name, 1), "s")
        out[f"{name}.self_s"] = metric(stat(name, 2), "s")
    for command in tr.COMMANDS:
        out[f"cli.{command}.self_s"] = metric(stat(f"cli.{command}", 2), "s")
        out[f"{command}_ref_s"] = metric(
            median(p.ref_times.get(command, 0.0) for p in untraced), "ref-s"
        )

    cells = count("rouge.lcs_length.cells")
    out["rouge.lcs_length.cells"] = metric(cells, "count")
    out["rouge.lcs_length.ns_per_cell"] = metric(
        ratio(stat("rouge.lcs_length", 1) * 1e9, cells), "ns/cell"
    )
    out["textproc.tokenize.chars"] = metric(count("textproc.tokenize.chars"), "count")
    pairs = count("corpus.source_sentences.distinct")
    out["corpus.source_sentences.encounters"] = metric(pairs, "count")
    out["corpus.source_sentences.calls_per_encounter"] = metric(
        ratio(stat("corpus.source_sentences", 0), pairs), "calls/enc"
    )
    out["faithfulness.extract_entities_gazetteer.distinct_ratio"] = metric(
        ratio(count("faithfulness.extract_entities_gazetteer.distinct"),
              stat("faithfulness.extract_entities_gazetteer", 0)), "ratio"
    )
    documents = count("sections.find_headers.distinct")
    out["sections.find_headers.documents"] = metric(documents, "count")
    out["sections.find_headers.calls_per_document"] = metric(
        ratio(stat("sections.find_headers", 0), documents), "calls/doc"
    )
    for fn in ("write_jsonl", "read_jsonl"):
        mb = count(f"jsonl.{fn}.bytes") / 1e6
        out[f"jsonl.{fn}.mb"] = metric(mb, "MB")
        out[f"jsonl.{fn}.mb_per_s"] = metric(ratio(mb, stat(f"jsonl.{fn}", 1)), "MB/s")
    out["pipeline.chunk_encounter.segments"] = metric(count("pipeline.chunk_encounter.segments"), "count")
    out["pipeline.chunk_encounter.windowed_segments"] = metric(
        count("pipeline.chunk_encounter.windowed_segments"), "count"
    )

    out["input.encounters"] = metric(sizes.encounters, "count")
    out["input.sentences_per_encounter"] = metric(sizes.sentences_per_encounter, "sent/enc")
    out["input.tokens_per_encounter"] = metric(sizes.tokens_per_encounter, "tok/enc")
    plain = median(encounters / p.seconds for p in untraced)
    with_trace = median(encounters / p.seconds for p in traced)
    out["trace.enc_per_s_untraced"] = metric(plain, "enc/s")
    out["trace.enc_per_s_traced"] = metric(with_trace, "enc/s")
    out["trace.overhead_enc_per_s"] = metric(with_trace - plain, "enc/s")
    attempted, failed = ops(run.passes, len(run.stages))
    out["failed_ops_ratio"] = metric(failed / attempted, "ratio")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "encsum" / "cli.py").is_file():
        print(f"perfbench: no encsum source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.make(args.workload, work, args.seed)

    def set_up():
        cli = fresh_import()
        workload.setup(cli.main)
        return cli

    sampler = SpeedSampler()
    setup_times = []
    with sampler:
        sampler.warm_up(WARMUP_S)
        for _ in range(SETUPS):
            cli, _, ref_s = sampler.timed(set_up)
            setup_times.append(ref_s)
    sizes = measure_sizes(workload.generated)
    workload.generated = []

    run = Run(workload, cli.main, workload.stages())
    tracer = tr.Tracer() if args.trace else None
    min_passes = 2 * MIN_PASSES if tracer else MIN_PASSES
    deadline = perf_counter() + args.seconds
    # Start another pass while it would end, by the last pass's length, at
    # most half a pass past the deadline.
    while len(run.passes) < min_passes or (
        perf_counter() + run.passes[-1].seconds / 2 < deadline
    ):
        if tracer is not None and len(run.passes) % 2 == 1:
            tracer.install()
            try:
                run.run_pass(tracer, None)
            finally:
                tracer.uninstall()
        else:
            with sampler:
                run.run_pass(None, sampler)

    metrics = per_layer(run, sizes) if tracer else end_to_end(run, setup_times)
    attempted, failed = ops(run.passes, len(run.stages))
    for i, p in enumerate(run.passes):
        for stage, problems in p.failed.items():
            print(f"perfbench: pass {i} {stage}: {'; '.join(problems)}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "input": asdict(sizes),
        "setup_s": summarize(setup_times),
        "passes": len(run.passes),
        "stage_s": {
            s.name: summarize([p.times[s.name] for p in run.passes if p.trace is None])
            for s in run.stages
        },
        "stage_ref_s": {
            s.name: summarize([p.ref_times[s.name] for p in run.passes if p.trace is None])
            for s in run.stages
        },
        "speed_samples": summarize(sampler.samples),
        "digests": run.passes[0].digests,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if tracer:
        record["spans"] = tracer.write_spans(work / "spans.csv")
    (work / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, s in record["stage_s"].items():
        ref = record["stage_ref_s"][name]["median"]
        print(f"{args.workload} {name}: median {s['median']:.4f} s ({ref:.4f} ref-s) over {s['n']} passes")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
