import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from posheap.cli import main
from posheap.verify import run_verify

from conftest import REF_TEXT


@pytest.fixture()
def ref_index(tmp_path):
    text = tmp_path / "text.bin"
    text.write_bytes(REF_TEXT)
    out = tmp_path / "text.idx.json"
    assert main(["build", str(text), "--out", str(out)]) == 0
    return out


def test_build_summary_line(tmp_path, capsys):
    text = tmp_path / "t.bin"
    text.write_bytes(REF_TEXT)
    out = tmp_path / "t.idx.json"
    assert main(["build", str(text), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "n=13 nodes=12 depth=3 active_position=12" in err


def test_build_empty_input(tmp_path, capsys):
    text = tmp_path / "empty.bin"
    text.write_bytes(b"")
    assert main(["build", str(text), "--out", str(tmp_path / "e.json")]) == 0
    assert "n=0 nodes=1 depth=0" in capsys.readouterr().err


def test_build_unreadable_input(tmp_path):
    with pytest.raises(SystemExit):
        main(["build", str(tmp_path / "missing.bin"), "--out", str(tmp_path / "x")])


def test_query_positions(ref_index, capsys):
    assert main(["query", str(ref_index), "--pattern", "ab"]) == 0
    out = capsys.readouterr().out
    assert out.split() == ["2", "4", "9", "12"]


def test_query_count(ref_index, capsys):
    assert main(["query", str(ref_index), "--pattern", "ab", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_query_absent_letter(ref_index, capsys):
    assert main(["query", str(ref_index), "--pattern", "z"]) == 0
    assert capsys.readouterr().out == ""


def test_query_empty_pattern_is_usage_error(ref_index):
    assert main(["query", str(ref_index), "--pattern", ""]) == 2


def test_query_malformed_index(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["query", str(bad), "--pattern", "a"]) == 1


def test_stream_build_identical(tmp_path):
    text = tmp_path / "t.bin"
    text.write_bytes(b"mississippi$banana" * 20)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["build", str(text), "--out", str(a)]) == 0
    assert main(["build", str(text), "--stream", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdin_build(tmp_path):
    out = tmp_path / "o.json"
    proc = subprocess.run(
        [sys.executable, "-m", "posheap.cli", "build", "-", "--out", str(out)],
        input=REF_TEXT,
        capture_output=True,
    )
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["text"] == REF_TEXT.decode("latin-1")
    assert doc["text_length"] == 13


def test_stdout_build_is_utf8_whatever_the_locale():
    text = bytes(range(256)) * 2
    proc = subprocess.run(
        [sys.executable, "-m", "posheap.cli", "build", "-"],
        input=text,
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.decode("utf-8"))
    assert doc["text"].encode("latin-1") == text


def test_stdout_build_into_text_only_stream(tmp_path):
    text = tmp_path / "text.bin"
    text.write_bytes(REF_TEXT + b"\xff")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["build", str(text)]) == 0
    assert json.loads(out.getvalue())["text"].encode("latin-1") == REF_TEXT + b"\xff"


def test_export_dot(ref_index, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert main(["export", str(ref_index), "--out", str(dot)]) == 0
    content = dot.read_text()
    assert content.startswith("digraph")
    assert content.count("style=dashed") == 11


def test_build_dot_format(tmp_path):
    text = tmp_path / "t.bin"
    text.write_bytes(REF_TEXT)
    dot = tmp_path / "g.dot"
    assert main(["build", str(text), "--format", "dot", "--out", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")


def test_verify_small(capsys):
    assert main(["verify", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") >= 8


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_verify_max_n_below_one_is_usage_error(max_n, capsys):
    # an empty exhaustive sweep would report "ok" without checking anything
    assert main(["verify", "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "--max-n" in captured.err


def test_verify_index_negative_control(ref_index, tmp_path, capsys):
    assert main(["verify", "--index", str(ref_index)]) == 0
    doc = json.loads(ref_index.read_text())
    doc["text"] = "b" + doc["text"][1:]  # change one letter, keep the checksum
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--index", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_build_unwritable_output(tmp_path):
    text = tmp_path / "t.bin"
    text.write_bytes(b"abc")
    with pytest.raises(SystemExit):
        main(["build", str(text), "--out", str(tmp_path / "no" / "dir" / "x.json")])


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["query"])  # missing required args
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["build", "x", "--format", "yaml"])
    assert e.value.code == 2


def test_bench_subcommand_is_gone():
    with pytest.raises(SystemExit) as e:
        main(["bench", "--sizes", "1000"])
    assert e.value.code == 2


def test_query_pattern_above_latin1_is_usage_error(ref_index, capsys):
    assert main(["query", str(ref_index), "--pattern", "a\u20ac"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "U+00FF" in err


@pytest.mark.parametrize("size", ["0", "-1", "160", "300"])
def test_verify_alphabet_size_out_of_range_is_usage_error(size, capsys):
    assert main(["verify", "--alphabet-size", size, "--max-n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "1..159" in captured.err


def test_verify_unary_alphabet(capsys):
    assert main(["verify", "--alphabet-size", "1", "--max-n", "3"]) == 0


def test_verify_pattern_sweep_bounded_by_text_length():
    lines = []
    assert run_verify(max_n=1, alphabet_size=8, report=lines.append)
    # 8 one-letter texts x (8 + 64) patterns of one and two letters
    assert "ok   search-exhaustive: 576 cases" in lines
