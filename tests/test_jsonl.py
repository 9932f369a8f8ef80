import os

import pytest

from encsum.jsonl import iter_jsonl, read_jsonl, write_json, write_jsonl, write_text


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

    def test_file_mode_follows_umask(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x", encoding="utf-8")
        written = tmp_path / "written.txt"
        write_text(written, "x")
        assert written.stat().st_mode == plain.stat().st_mode


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
