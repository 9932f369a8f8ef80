"""Rule-based extraction of target medical sections from clinical notes.

Headers are matched as case-insensitive literal prefixes anchored at line
start (at most three leading spaces/tabs) and ending in a colon; a section's
body runs from the end of its header to the character before the next header
of any kind. The same matcher doubles as the rule-based baseline when applied
to prior notes instead of the discharge summary.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Mapping, NamedTuple

from .corpus import Encounter, check_fields
from .jsonl import parse_json, read_text

# The characters ``str.splitlines`` breaks lines at (``\r\n`` counts as one
# break). ``find_headers`` maps the nine after ``\n`` to ``\n`` one for one
# before its scan, so that the header regex opens with a literal ``\n``.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class SectionName(str, Enum):
    """The seven target medical sections, shortest to longest typical output."""

    CHIEF_COMPLAINT = "chief_complaint"
    FAMILY_HISTORY = "family_history"
    SOCIAL_HISTORY = "social_history"
    MEDICATIONS_ON_ADMISSION = "medications_on_admission"
    PAST_MEDICAL_HISTORY = "past_medical_history"
    HISTORY_OF_PRESENT_ILLNESS = "history_of_present_illness"
    BRIEF_HOSPITAL_COURSE = "brief_hospital_course"


@dataclass(frozen=True)
class HeaderRuleSet:
    """Per-section header variants plus terminator headers that end any section."""

    variants: Mapping[SectionName, tuple[str, ...]]
    terminators: tuple[str, ...]

    def __post_init__(self):
        for section in SectionName:
            patterns = self.variants.get(section, ())
            if not patterns:
                raise ValueError(f"no header variants for section {section.value!r}")
            if any(not p.strip() for p in patterns):
                raise ValueError(f"blank header variant for section {section.value!r}")
            if any(_has_line_break(p) for p in patterns):
                raise ValueError(f"header variant with a line break for section {section.value!r}")
        if any(not p.strip() for p in self.terminators):
            raise ValueError("blank header pattern in 'terminators'")
        if any(_has_line_break(p) for p in self.terminators):
            raise ValueError("header pattern with a line break in 'terminators'")

    def all_patterns(self) -> list[tuple[str, SectionName | None]]:
        out: list[tuple[str, SectionName | None]] = []
        for section in SectionName:
            out.extend((p.lower(), section) for p in self.variants[section])
        out.extend((p.lower(), None) for p in self.terminators)
        return out

    @cached_property
    def _matcher(self) -> tuple[re.Pattern, dict[str, SectionName | None]]:
        # A "\n", at most three spaces or tabs not followed by another,
        # then a pattern as group 1, compiled from a prefix trie of the
        # patterns (see _trie_regex), so the longest matching pattern wins; a
        # pattern listed twice keeps its first owner in all_patterns() order.
        owners: dict[str, SectionName | None] = {}
        for pattern, section in self.all_patterns():
            owners.setdefault(pattern, section)
        trie = _trie_regex(owners)
        return re.compile(f"\n[ \t]{{0,3}}(?![ \t])({trie})"), owners


def _trie_regex(patterns) -> str:
    """A regex matching the longest of the distinct literal ``patterns`` that
    prefixes the text, built as a prefix trie.

    Patterns sharing a first character share one branch, so the scan reads
    each character of a line once; a run of characters with no fork becomes
    one literal. The empty pattern, where one pattern ends inside another, is
    the last alternative: every branch is tried before it, so a longer
    pattern wins over its prefix.
    """
    by_first: dict[str, list[str]] = {}
    for pattern in patterns:
        if pattern:
            by_first.setdefault(pattern[0], []).append(pattern)
    branches = []
    for group in by_first.values():
        shared = os.path.commonprefix(group)
        rest = _trie_regex([p[len(shared):] for p in group])
        branches.append(re.escape(shared) + (f"(?:{rest})" if rest else ""))
    if "" in patterns:
        branches.append("")
    return "|".join(branches)


def _has_line_break(pattern: str) -> bool:
    return pattern.splitlines() != [pattern]


@dataclass(frozen=True)
class SectionInstance:
    encounter_id: str
    section: SectionName
    reference_text: str
    char_span: tuple[int, int]

    def to_record(self) -> dict:
        return {
            "encounter_id": self.encounter_id,
            "section": self.section.value,
            "text": self.reference_text,
            "start": self.char_span[0],
            "end": self.char_span[1],
        }

    @staticmethod
    def from_record(record) -> "SectionInstance":
        """Inverse of ``to_record``; ValueError when ``record`` is not a section record."""
        check_fields(record, "a section", _INSTANCE_FIELDS)
        try:
            section = SectionName(record["section"])
        except ValueError:
            message = f"not a section record: unknown section {record['section']!r}"
            raise ValueError(message) from None
        return SectionInstance(
            record["encounter_id"], section, record["text"], (record["start"], record["end"])
        )


_INSTANCE_FIELDS = (
    ("encounter_id", str), ("section", str), ("text", str), ("start", int), ("end", int)
)


class HeaderMatch(NamedTuple):
    start: int
    end: int
    section: SectionName | None  # None for terminator patterns


# ``tuple.__new__(HeaderMatch, fields)`` builds a HeaderMatch without the
# NamedTuple's Python ``__new__``.
_new_tuple = tuple.__new__


def load_rules(path: str | Path | None = None) -> HeaderRuleSet:
    """Load a header rules JSON file; with no path, the packaged defaults.

    The file is read by ``read_text`` and parsed by ``parse_json``; a file
    that is not UTF-8 or that ``parse_json`` rejects (a key given twice, say)
    is a ValueError naming the file. It holds one JSON object whose keys are
    section names or ``terminators``, each a list of non-blank strings; every
    section needs at least one variant and ``terminators`` is optional. A
    string holding a line break (any that ``str.splitlines`` breaks at) could
    never match within one line. Anything else raises a ValueError naming the
    file and the key.
    """
    source = "packaged data/section_headers.json" if path is None else str(path)
    try:
        data = parse_json(read_text(path, "section_headers.json"))
    except ValueError as exc:
        raise ValueError(f"{source}: not a JSON header rules file ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{source}: header rules must be a JSON object")
    known = {s.value for s in SectionName} | {"terminators"}
    for key, patterns in data.items():
        if key not in known:
            raise ValueError(
                f"{source}: unknown key {key!r} (expected a section name or 'terminators')"
            )
        if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
            raise ValueError(f"{source}: {key!r} must be a list of strings")
    variants = {section: tuple(data.get(section.value, ())) for section in SectionName}
    try:
        return HeaderRuleSet(variants, tuple(data.get("terminators", ())))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def find_headers(document_text: str, rules: HeaderRuleSet) -> list[HeaderMatch]:
    """All anchored header matches in the document, in position order.

    When several patterns match at the same position the longest wins; a
    pattern listed more than once belongs to its first owner in
    ``all_patterns()`` order (sections in order, then terminators).
    """
    matcher, owners = rules._matcher
    lowered = document_text.lower()
    if len(lowered) != len(document_text):
        return _find_headers_by_line(document_text, matcher, owners)
    # One scan of the whole document; the "\n" put in front makes its start a
    # line start and shifts every offset by one. Lowercasing keeps offsets
    # when it keeps the length, and no line break changes how the text around
    # it lowercases (not even a final sigma), so each line lowercases here as
    # it would alone. Each other line break becomes one "\n", which keeps
    # offsets too; sre finds the regex's literal "\n" by a fast search
    # instead of trying a class of ten at every position.
    text = "\n" + lowered
    for line_break in _LINE_BREAKS[1:]:
        text = text.replace(line_break, "\n")
    return [
        _new_tuple(HeaderMatch, (m.start(1) - 1, m.end() - 1, owners[m[1]]))
        for m in matcher.finditer(text)
    ]


def _find_headers_by_line(
    document_text: str, matcher: re.Pattern, owners: Mapping[str, SectionName | None]
) -> list[HeaderMatch]:
    # U+0130 is the one character that lowercases to two, shifting every
    # offset after it in a lowercased document; a header's offsets are those
    # of its own line, and its end is its start plus the pattern's length.
    matches: list[HeaderMatch] = []
    offset = 0
    for line in document_text.splitlines(keepends=True):
        m = matcher.match("\n" + line.lower())
        if m is not None:
            start = offset + m.start(1) - 1
            matches.append(HeaderMatch(start, start + len(m[1]), owners[m[1]]))
        offset += len(line)
    return matches


def extract_section(
    document_text: str, section: SectionName, rules: HeaderRuleSet, encounter_id: str = ""
) -> SectionInstance | None:
    """Extract the first occurrence of ``section``; None when no header matches."""
    matches = find_headers(document_text, rules)
    for i, match in enumerate(matches):
        if match.section is section:
            return _section_at(document_text, matches, i, encounter_id)
    return None


def extract_sections(
    document_text: str, rules: HeaderRuleSet, encounter_id: str = ""
) -> dict[SectionName, SectionInstance]:
    """``extract_section`` for every section from one header scan: each section
    whose header matches, mapped to its first occurrence."""
    matches = find_headers(document_text, rules)
    found: dict[SectionName, SectionInstance] = {}
    for i, match in enumerate(matches):
        if match.section is not None and match.section not in found:
            found[match.section] = _section_at(document_text, matches, i, encounter_id)
    return found


def _section_at(
    text: str, matches: list[HeaderMatch], i: int, encounter_id: str
) -> SectionInstance:
    # The body runs from the end of header i to the next header of any kind,
    # trimmed of surrounding whitespace.
    body_end = matches[i + 1].start if i + 1 < len(matches) else len(text)
    start, end = _trim_span(text, matches[i].end, body_end)
    return SectionInstance(encounter_id, matches[i].section, text[start:end], (start, end))


def _trim_span(text: str, start: int, end: int) -> tuple[int, int]:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def rule_based_extract_from_priors(
    encounter: Encounter, section: SectionName, rules: HeaderRuleSet
) -> str | None:
    """Apply the section rule to every prior note in chart order; None if no hits.

    Hits are joined with a blank line; a header with an empty body still
    counts as a hit and contributes an empty string.
    """
    hits = []
    for note in encounter.prior_notes:
        instance = extract_section(note.text, section, rules, encounter.encounter_id)
        if instance is not None:
            hits.append(instance.reference_text)
    if not hits:
        return None
    return "\n\n".join(hits)
