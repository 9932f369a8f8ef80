import json
import os

import pytest
from hypothesis import given, strategies as st

from encsum.jsonl import (
    encode_line, iter_jsonl, parse_json, read_jsonl, read_text, write_json, write_jsonl,
    write_text,
)


def _failing_records():
    yield {"n": 1}
    yield {"n": 2}
    raise RuntimeError("record source failed")


class TestAtomicWrites:
    # A failing record source used to leave a truncated file with the
    # records written so far.
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(path, [{"old": True}])
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            write_jsonl(path, _failing_records())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_failed_write_creates_nothing(self, tmp_path):
        path = tmp_path / "sub" / "out.jsonl"
        with pytest.raises(RuntimeError):
            write_jsonl(path, _failing_records())
        assert not path.exists()
        assert os.listdir(tmp_path / "sub") == []

    def test_unserialisable_record_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(path, [{"old": True}])
        with pytest.raises(TypeError):
            write_jsonl(path, [{"new": True}, {"bad": object()}])
        assert read_jsonl(path) == [{"old": True}]
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_successful_writes_replace_and_leave_one_file(self, tmp_path):
        write_jsonl(tmp_path / "a.jsonl", [{"n": 1}])
        write_jsonl(tmp_path / "a.jsonl", [{"n": 2}, {"n": 3}])
        write_json(tmp_path / "b.json", {"k": [1]})
        write_text(tmp_path / "c.csv", "x,y\n")
        assert read_jsonl(tmp_path / "a.jsonl") == [{"n": 2}, {"n": 3}]
        assert (tmp_path / "b.json").read_text(encoding="utf-8") == '{\n  "k": [\n    1\n  ]\n}\n'
        assert sorted(os.listdir(tmp_path)) == ["a.jsonl", "b.json", "c.csv"]

    # U+0085, U+2028 and U+2029 used to be written raw, so that
    # ``str.splitlines`` broke a record in three.
    @given(st.text(st.characters() | st.sampled_from("\x85\u2028\u2029")))
    def test_line_survives_splitlines(self, text):
        line = encode_line({"t": text, "é": [text]})
        assert line.splitlines() == [line]
        assert json.loads(line) == {"t": text, "é": [text]}

    def test_file_mode_follows_umask(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x", encoding="utf-8")
        written = tmp_path / "written.txt"
        write_text(written, "x")
        assert written.stat().st_mode == plain.stat().st_mode


# JSON values at the edges of each type the encoder writes: nested objects
# with str keys, non-ASCII and NUL characters, ints beyond 2**64, and floats
# with -0.0, subnormals, NaN and both infinities.
_texts = st.text(st.characters() | st.sampled_from("\x00é\x85\u2028\u2029"), max_size=6)
_encodable_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200).map(
        lambda n: n * (-1) ** (n % 2)
    ) | st.floats() | st.sampled_from(
        [-0.0, 5e-324, -2.2e-308, float("nan"), float("inf"), float("-inf")]
    ) | _texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=12,
)


class TestEncodeLine:
    # The encoder built once at import must write the bytes of a
    # JSONEncoder made for each call, but for the three escaped line breaks.
    @given(_encodable_values)
    def test_equals_json_encoder(self, value):
        expected = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode(value)
        for line_break in "\x85\u2028\u2029":
            expected = expected.replace(line_break, f"\\u{ord(line_break):04x}")
        assert encode_line(value) == expected


class TestRead:
    def test_records_go_to_add_and_no_list_is_kept(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"n": 1}\n\n{"n": 2}\n', encoding="utf-8")
        seen = []
        assert read_jsonl(path, seen.append) == []
        assert seen == [{"n": 1}, {"n": 2}]

        def add(record):
            if record["n"] == 2:
                raise ValueError("bad n")

        with pytest.raises(ValueError, match=r"a\.jsonl:3: bad n$"):
            read_jsonl(path, add)

    # A byte that is not UTF-8 used to raise the decoder's error, whose
    # position is an offset into a read buffer, from the whole file.
    def test_line_that_is_not_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(
            b'{"t": "caf\xc3\xa9"}\r'  # UTF-8, then a lone \r
            b'{"t": "caf\xe9"}\r\n'  # Latin-1
            b'{"t": "\\ud83d\\ude00"}\n'  # an escaped surrogate pair
            b'\xff\n'
        )
        assert list(iter_jsonl(path)) == [
            (1, {"t": "café"}), (2, None), (3, {"t": "\U0001F600"}), (4, None),
        ]
        with pytest.raises(ValueError, match=r"a\.jsonl:2: not a JSON record$"):
            read_jsonl(path)

    # A leading byte-order mark used to make the first line malformed, or a
    # whole-file input fatal; one that starts a later line is still malformed.
    def test_leading_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"n": 1}\n\xef\xbb\xbf{"n": 2}\n')
        assert list(iter_jsonl(path)) == [(1, {"n": 1}), (2, None)]
        assert read_text(path) == '{"n": 1}\n\ufeff{"n": 2}\n'

    # A string escaping an unpaired surrogate, which UTF-8 cannot encode, used
    # to be read as it was; writing it out then failed, naming no file or line.
    @pytest.mark.parametrize("line, parsed", [
        ('{"t": "a\\ud800"}', None),  # a lone high surrogate
        ('{"t": "\\udc00b"}', None),  # a lone low surrogate
        ('{"t": "\\uDFFF"}', None),  # upper-case hex digits
        ('{"t": ["x", {"\\udbff": 1}]}', None),  # one in a nested key
        ('{"t": "\\ude00\\ud83d"}', None),  # a pair in the wrong order
        ('{"t": "\\ud83d\\ude00"}', {"t": "\U0001F600"}),  # a valid pair
        ('{"t": "caf\\u00e9 \\\\ud800"}', {"t": "café \\ud800"}),  # an escaped backslash
    ], ids=["high", "low", "upper case", "nested key", "reversed pair", "pair",
            "escaped backslash"])
    def test_unpaired_surrogate_is_malformed(self, tmp_path, line, parsed):
        path = tmp_path / "a.jsonl"
        path.write_text(f'{{"n": 1}}\n{line}\n', encoding="utf-8")
        assert list(iter_jsonl(path)) == [(1, {"n": 1}), (2, parsed)]
        if parsed is None:
            with pytest.raises(ValueError, match=r"a\.jsonl:2: not a JSON record$"):
                read_jsonl(path)


# JSON values without a repeated key, as ``json.dumps`` writes them.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)


def _dump_repeating(value, target, draw):
    """``value`` as JSON text, with one key of its ``target``-th non-empty
    object (in the order the text opens them) given a second time, at a
    drawn place after the first; and that key."""
    repeated = []

    def dump(v):
        if isinstance(v, list):
            return "[" + ", ".join(map(dump, v)) + "]"
        if not isinstance(v, dict) or not v:
            return json.dumps(v)
        repeated.append(None)
        index = len(repeated)
        items = [(k, dump(x)) for k, x in v.items()]
        if index == target:
            first = draw(st.integers(0, len(items) - 1), label="key")
            place = draw(st.integers(first + 1, len(items)), label="place")
            items.insert(place, (items[first][0], "null"))
            repeated[index - 1] = items[first][0]
        return "{" + ", ".join(f"{json.dumps(k)}: {x}" for k, x in items) + "}"

    text = dump(value)
    return text, repeated[target - 1]


def _objects(value):
    """How many non-empty objects ``value`` holds, itself included."""
    if isinstance(value, list):
        return sum(map(_objects, value))
    if isinstance(value, dict):
        return bool(value) + sum(map(_objects, value.values()))
    return 0


class TestParseJson:
    # json.loads stays the reference wherever no key is repeated.
    @given(_json_values, st.sampled_from([None, 2]), st.booleans())
    def test_equals_json_loads(self, value, indent, ensure_ascii):
        text = json.dumps(value, indent=indent, ensure_ascii=ensure_ascii)
        assert parse_json(text) == json.loads(text)

    # Every JSON Lines line is parsed so; a repeated key used to let its
    # later value win there.
    @given(st.data())
    def test_repeated_key_at_any_depth_names_it(self, data):
        value = data.draw(st.dictionaries(st.text(max_size=4), _json_values, min_size=1,
                                          max_size=4), label="value")
        target = data.draw(st.integers(1, _objects(value)), label="object")
        text, key = _dump_repeating(value, target, data.draw)
        with pytest.raises(ValueError) as caught:
            parse_json(text)
        assert str(caught.value) == f"repeated key {key!r}"
