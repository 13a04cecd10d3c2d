import io
import json
import random
import re
import zlib

import pytest

from posheap import augment, index, recover_text
from posheap.index_io import IndexFileError, index_dot, index_json, load_index

from conftest import REF_TEXT, all_strings, fibonacci_word


def roundtrip(s: bytes):
    aug = augment(index(s))
    blob = index_json(aug)
    aug2 = load_index(io.StringIO(blob))
    return aug, blob, aug2


def test_roundtrip_is_byte_identical():
    rng = random.Random(3)
    cases = [b"", b"a", b"abab", REF_TEXT]
    cases += [bytes(rng.randrange(256) for _ in range(rng.randint(0, 300))) for _ in range(20)]
    for s in cases:
        aug, blob, aug2 = roundtrip(s)
        assert index_json(aug2) == blob
        assert recover_text(aug2.heap) == s


def test_loaded_index_answers_queries():
    from posheap import find_all, find_all_naive

    s = REF_TEXT
    _, _, aug2 = roundtrip(s)
    assert find_all(aug2, b"ab") == [2, 4, 9, 12]
    assert find_all(aug2, b"aab") == find_all_naive(s, b"aab")


def saved_doc() -> dict:
    return json.loads(roundtrip(REF_TEXT)[1])


def load_doc(doc):
    return load_index(io.StringIO(json.dumps(doc)))


def test_version_mismatch_is_hard_error():
    # version 1 files stored the node table; no reader for them remains
    for version in (1, 999):
        doc = saved_doc()
        doc["version"] = version
        with pytest.raises(
            IndexFileError, match=rf"unsupported index version: {version} \(expected 2\)"
        ):
            load_doc(doc)


def test_not_json():
    with pytest.raises(IndexFileError, match="JSON"):
        load_index(io.StringIO("definitely not json{"))


def test_file_is_text_and_checksum():
    _, blob, _ = roundtrip(REF_TEXT)
    assert blob == (
        '{"version":2,"text_length":13,"crc32":%d,"text":"aababbbaabaab"}\n'
        % zlib.crc32(REF_TEXT)
    )


def test_non_ascii_bytes_written_raw():
    # bytes >= 0x7F are written raw (two UTF-8 bytes from 0x80 up); only
    # control bytes, quote and backslash keep their escapes
    s = random.Random(11).randbytes(20_000)
    aug, blob, aug2 = roundtrip(s)
    assert len(blob.encode("utf-8")) / len(s) <= 2.1
    escaped = {int(x, 16) for x in re.findall(r"\\u00([0-9a-f]{2})", blob)}
    assert escaped and max(escaped) < 0x20
    assert index_json(aug2) == blob
    assert recover_text(aug2.heap) == s
    # an ASCII text takes json's ASCII escaper, which also escapes DEL
    assert '"text":"a\\u007fb"' in index_json(augment(index(b"a\x7fb")))
    assert '"text":"a\x7f\xffb"' in index_json(augment(index(b"a\x7f\xffb")))

def test_every_single_byte_text_change_rejected():
    doc = saved_doc()
    text = doc["text"]
    for i in range(len(text)):
        for c in range(256):
            if chr(c) == text[i]:
                continue
            doc["text"] = text[:i] + chr(c) + text[i + 1:]
            with pytest.raises(IndexFileError, match="crc32"):
                load_doc(doc)


def test_wrong_text_length_rejected():
    for length in (0, 12, 14):
        doc = saved_doc()
        doc["text_length"] = length
        with pytest.raises(IndexFileError, match="text_length"):
            load_doc(doc)


MISSING = object()


@pytest.mark.parametrize("key", ["version", "text_length", "crc32", "text"])
@pytest.mark.parametrize(
    "value", [MISSING, None, 2.0, True, [], {}],
    ids=["missing", "null", "float", "bool", "list", "object"],
)
def test_missing_or_mistyped_field_rejected(key, value):
    doc = saved_doc()
    if value is MISSING:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(IndexFileError):
        load_doc(doc)


def test_non_latin1_text_rejected():
    doc = saved_doc()
    doc["text"] = "aab\u2603bbbaabaab"
    with pytest.raises(IndexFileError, match="U\\+00FF"):
        load_doc(doc)


def test_top_level_not_an_object():
    for blob in ("[]", "2", '"text"', "null"):
        with pytest.raises(IndexFileError, match="object"):
            load_index(io.StringIO(blob))


def test_damaged_file_never_loads_another_text():
    # overwrite each character of a saved file in turn: the result either
    # fails with IndexFileError or still holds the original text
    _, blob, _ = roundtrip(REF_TEXT)
    for i in range(len(blob)):
        for ch in '0 9"{}[],:\\ab\u00e9\u2603':
            damaged = blob[:i] + ch + blob[i + 1:]
            try:
                aug = load_index(io.StringIO(damaged))
            except IndexFileError:
                continue
            assert recover_text(aug.heap) == REF_TEXT


def test_missing_mrp_depths_is_recomputed():
    # a file carries no reach depths; the loader recomputes them
    aug, blob, aug2 = roundtrip(REF_TEXT)
    assert "mrp" not in blob
    assert list(aug2.mrp_depths()) == list(aug.mrp_depths())


@pytest.mark.parametrize(
    "text",
    [b"a" * 32768, b"abc" * 10923, fibonacci_word(28657)],
    ids=["unary", "periodic", "fibonacci"],
)
def test_adversarial_roundtrip(text):
    from posheap import find_all, find_all_naive

    aug, blob, aug2 = roundtrip(text)
    assert index_json(aug2) == blob
    assert recover_text(aug2.heap) == text
    for pattern in all_strings(bytes(sorted(set(text))), 4, min_len=1):
        assert find_all(aug2, pattern) == find_all_naive(text, pattern), pattern


def test_dot_reference_counts(ref_heap):
    aug = augment(ref_heap)
    dot = index_dot(aug)
    lines = dot.splitlines()
    node_decls = [l for l in lines if l.lstrip().startswith("n") and "[label=" in l and "->" not in l]
    tree_edges = [l for l in lines if "->" in l and "label=" in l]
    suffix_edges = [l for l in lines if "style=dashed" in l]
    mrp_edges = [l for l in lines if "black:invis:black" in l]
    assert len(node_decls) == 12
    assert len(tree_edges) == 11
    assert len(suffix_edges) == 11
    assert len(mrp_edges) == 5  # exactly the five deep-reach positions


def test_dot_root_only():
    dot = index_dot(augment(index(b"")))
    assert "root" in dot
    assert "->" not in dot


def test_streaming_and_batch_files_identical_100_random():
    from posheap import PositionHeap, build

    rng = random.Random(8)
    for trial in range(100):
        n = rng.randint(0, 120)
        alphabet = rng.choice([b"ab", b"abcd", bytes(range(256))])
        s = bytes(rng.choice(alphabet) for _ in range(n))
        streamed = PositionHeap()
        for c in s:
            streamed.append(c)
        streamed.finalize()
        batch = build(s)
        batch.finalize()
        assert index_json(augment(streamed)) == index_json(augment(batch)), s
