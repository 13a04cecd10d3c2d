"""Versioned JSON index files and DOT rendering.

An index file stores the text and its CRC32, nothing else: a finalized
position heap is a deterministic function of its text, and the on-line
construction rebuilds it in linear time.  The loader checks every field,
the text length and the checksum, then builds and augments the heap, so
a damaged file is rejected instead of answering queries from a wrong
structure.

Version 2 is one JSON line with fixed field order and compact separators:

    {"version":2,"text_length":n,"crc32":c,"text":"<text as latin-1>"}

which makes save -> load -> save byte-identical.  A text with a byte
>= 0x80 is written with bytes >= 0x7F raw (two bytes each from 0x80 in
UTF-8), not as six-byte escapes; an ASCII text goes through json's ASCII
escaper, about twice as fast on word text, which escapes DEL.  Control
bytes, quote and backslash are always escaped.  Version 1 files (the
node table) are rejected.
"""

from __future__ import annotations

import json
import zlib

from .augmented import AugmentedHeap, augment
from .heap import index

INDEX_FORMAT_VERSION = 2


class IndexFileError(ValueError):
    """Malformed, corrupted, or wrong-version index file."""


def index_json(aug: AugmentedHeap) -> str:
    data = aug.heap.text_bytes()
    doc = {
        "version": INDEX_FORMAT_VERSION,
        "text_length": len(data),
        "crc32": zlib.crc32(data),
        "text": data.decode("latin-1"),
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=data.isascii()) + "\n"


def load_index(fp) -> AugmentedHeap:
    """Parse, check, and rebuild; raises IndexFileError on any defect."""
    try:
        doc = json.loads(fp.read())
    except (ValueError, RecursionError) as e:
        raise IndexFileError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise IndexFileError("top level is not an object")
    version = doc.get("version")
    if type(version) is not int or version != INDEX_FORMAT_VERSION:
        raise IndexFileError(
            f"unsupported index version: {version!r} (expected {INDEX_FORMAT_VERSION})"
        )
    for key, typ in (("text_length", int), ("crc32", int), ("text", str)):
        if key not in doc:
            raise IndexFileError(f"missing field: {key}")
        if type(doc[key]) is not typ:
            raise IndexFileError(
                f"{key} must be {typ.__name__}, not {type(doc[key]).__name__}"
            )
    try:
        data = doc["text"].encode("latin-1")
    except UnicodeEncodeError:
        raise IndexFileError("text has a character above U+00FF") from None
    if len(data) != doc["text_length"]:
        raise IndexFileError(
            f"text is {len(data)} bytes but text_length is {doc['text_length']}"
        )
    crc = zlib.crc32(data)
    if crc != doc["crc32"]:
        raise IndexFileError(f"text checksum {crc} != stored crc32 {doc['crc32']}")
    try:
        heap = index(data)
    except ValueError as e:  # text too long for this index
        raise IndexFileError(str(e)) from None
    return augment(heap)


# ----------------------------------------------------------------------
# DOT rendering


def _letter_repr(c: int) -> str:
    if 32 <= c < 127 and chr(c) not in '"\\':
        return chr(c)
    return f"\\\\x{c:02x}"


def index_dot(aug: AugmentedHeap) -> str:
    """Graphviz rendering: solid labeled tree edges, dashed suffix links,
    doubled maximal-reach edges where the reach leaves the storing node."""
    heap = aug.heap
    n_nodes = heap.node_count()
    sec = heap._secondary
    lines = [
        "digraph posheap {",
        "  rankdir=TB;",
        '  node [shape=circle, fontsize=10];',
    ]
    for v in range(n_nodes):
        if v == 0:
            label = "root"
        else:
            positions = str(v) if v not in sec else f"{v},{sec[v]}"
            text = "".join(_letter_repr(c) for c in heap.path_label(v))
            label = f"{text}\\n{positions}"
        lines.append(f'  n{v} [label="{label}"];')
    kids = heap.children_lists()
    for v in range(n_nodes):
        for c, w in kids[v]:
            lines.append(f'  n{v} -> n{w} [label="{_letter_repr(c)}"];')
    for v in range(1, n_nodes):
        lines.append(f"  n{v} -> n{heap._suffix[v]} [style=dashed, constraint=false];")
    for i in range(1, aug.n + 1):
        v = aug.node_of(i)
        w = aug.mrp_node(i)
        if v != w:
            lines.append(
                f'  n{v} -> n{w} [color="black:invis:black", constraint=false];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
