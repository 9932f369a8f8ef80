"""Per-layer tracing of encsum, installed from the benchmark's side.

The layers are encsum's modules. Each listed public function is wrapped where
it is defined and at every ``from .x import y`` binding in the other encsum
modules, so calls made through any name are seen. Spans (name, start, end,
parent) are kept in flat in-memory arrays; a span's self time is its duration
minus the time its child spans cover. Counters are recorded at the same
boundaries so that ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

LAYERS = {
    "jsonl": ("read_jsonl", "iter_jsonl", "write_jsonl"),
    "corpus": ("ingest_notes", "assemble_encounters", "split_by_subject", "source_sentences", "corpus_stats"),
    "dataset": ("build_dataset", "load_encounters", "load_section_instances", "read_system_summaries"),
    "sections": ("find_headers", "extract_section", "rule_based_extract_from_priors"),
    "textproc": ("tokenize", "split_sentences"),
    "rouge": ("lcs_length", "rouge_l", "rouge_n"),
    "labeling": ("oracle_extract", "build_pseudo_pairs"),
    "pipeline": ("chunk_encounter", "merge_scores", "sweep_threshold", "apply_cutoff"),
    "faithfulness": ("extract_entities_gazetteer", "score_sets"),
    "reports": ("write_report",),
}
COMMANDS = (
    "build_dataset", "chunk", "oracle", "pseudo_labels", "rule_baseline",
    "merge_scores", "sweep", "cutoff", "evaluate",
)


def function_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


@dataclass
class PassTrace:
    """What one traced pass recorded: per-span-name [calls, total_s, self_s], counters."""

    stats: dict[str, list[float]]
    counters: dict[str, float]


class Tracer:
    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.command = ""
        self._reset()

    def _reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[list] = []
        self._stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self._counters: dict[str, float] = defaultdict(float)
        self._distinct: dict[str, set] = defaultdict(set)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name_id: int) -> list:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        frame = [index, 0.0, 0.0]  # span index, start, time covered by children
        self._stack.append(frame)
        frame[1] = perf_counter()
        self.start.append(frame[1])
        return frame

    def _close(self, frame: list, stat: list, calls: int) -> None:
        t1 = perf_counter()
        self._stack.pop()
        duration = t1 - frame[1]
        self.end[frame[0]] = t1
        stat[0] += calls
        stat[1] += duration
        stat[2] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, before=None, after=None):
        name_id = self._name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens while it is resumed: each resume is a
            # span, and the call is counted once, when the generator is made.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat = tracer._stats[name]
                stat[0] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = tracer._open(name_id)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(frame, stat, 0)
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stat = tracer._stats[name]
            frame = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, stat, 1)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters at layer boundaries ---------------------------------------

    def _hooks(self) -> dict[str, tuple]:
        # Hooks look the counters up on each call: every pass starts new ones.
        def add(key, value):
            self._counters[key] += value

        def per_command(key, value):
            self._distinct[key].add((self.command, value))

        def lcs(args, kwargs):
            add("rouge.lcs_length.cells", len(args[0]) * len(args[1]))

        def tokenize(args, kwargs):
            add("textproc.tokenize.chars", len(args[0] if args else kwargs["text"]))

        def source_sentences(args, kwargs):
            per_command("corpus.source_sentences", (args[0] if args else kwargs["encounter"]).encounter_id)

        def gazetteer(args, kwargs):
            per_command("faithfulness.extract_entities_gazetteer", hash(args[0] if args else kwargs["text"]))

        def find_headers(args, kwargs):
            per_command("sections.find_headers", hash(args[0] if args else kwargs["document_text"]))

        def read(args, kwargs):
            add("jsonl.read_jsonl.bytes", os.path.getsize(args[0] if args else kwargs["path"]))

        def write(args, kwargs, result):
            add("jsonl.write_jsonl.bytes", os.path.getsize(args[0] if args else kwargs["path"]))

        def chunk(args, kwargs, segments):
            bound = self._chunk_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            budget = bound.arguments["cfg"].max_tokens
            oversized = {s.key for s in bound.arguments["source_sents"] if len(s.tokens) > budget}
            add("pipeline.chunk_encounter.segments", len(segments))
            add("pipeline.chunk_encounter.windowed_segments", sum(
                1 for s in segments if len(s.sentences) == 1 and s.sentences[0] in oversized
            ))

        return {
            "rouge.lcs_length": (lcs, None),
            "textproc.tokenize": (tokenize, None),
            "corpus.source_sentences": (source_sentences, None),
            "faithfulness.extract_entities_gazetteer": (gazetteer, None),
            "sections.find_headers": (find_headers, None),
            "jsonl.read_jsonl": (read, None),
            "jsonl.write_jsonl": (None, write),
            "pipeline.chunk_encounter": (None, chunk),
        }

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of the listed functions in loaded encsum modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "encsum" or n.startswith("encsum.")]
        hooks = self._hooks()
        wrappers: dict[int, object] = {}
        for layer, fns in LAYERS.items():
            module = sys.modules[f"encsum.{layer}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                if fn_name == "chunk_encounter":
                    self._chunk_sig = inspect.signature(original)
                before, after = hooks.get(f"{layer}.{fn_name}", (None, None))
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{fn_name}", original, before, after))
        cli = sys.modules["encsum.cli"]
        for command in COMMANDS:
            original = getattr(cli, f"_cmd_{command}")
            wrappers[id(original)] = (original, self._wrap(f"cli.{command}", original, self._enter(command)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def _enter(self, command: str):
        def before(args, kwargs):
            self.command = command
        return before

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- passes -----------------------------------------------------------

    def begin_pass(self) -> None:
        self._reset()

    def end_pass(self) -> PassTrace:
        counters = dict(self._counters)
        for key, seen in self._distinct.items():
            counters[f"{key}.distinct"] = len(seen)
        return PassTrace({k: list(v) for k, v in self._stats.items()}, counters)

    def write_spans(self, path: Path) -> int:
        """Write the current pass's spans as CSV: id, name, start, end, parent."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent\n")
            names = self._names
            for i in range(len(self.start)):
                fh.write(f"{i},{names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n")
        return len(self.start)
