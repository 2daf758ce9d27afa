"""The header tables of ``docs/protocol.md`` match the codec's layouts.

``src/repro/serving/protocol.py`` declares each fixed-size payload
header once, as an ordered ``(field, struct code, allowed range)``
table, and both codecs read it.  This check holds the human-readable
copy to it: every row of the request, CORPUS_QUERY, LOGICNET and
RESULT header tables names the field, offset, size and type the layout
gives that position, and only a variable-length tail (the bitset, the
corpus name) may follow the header.
"""

import pathlib
import re
import struct

import pytest

from repro.serving import protocol

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "protocol.md"

#: Heading of each header table's section → the layout it documents.
SECTIONS = {
    "## Request payload": protocol._REQUEST,
    "## CORPUS_QUERY payload": protocol._CORPUS_QUERY,
    "## LOGICNET payload": protocol._LOGICNET_QUERY,
    "## RESULT frame": protocol._RESULT,
}

TYPES = {"u8": "B", "u16": "H", "u32": "I", "f64": "d"}

#: A header row's field cell: ``name`` or a bare name, then ``(type)``.
FIELD = re.compile(r"^`?([A-Za-z_ ]+?)`? \((u8|u16|u32|f64)\)$")


def header_rows(heading):
    """``(offset, size cell, field cell)`` of the section's first table."""
    section = DOC.read_text().split(heading + "\n", 1)[1]
    table = section[section.index("\n|") + 1 :].split("\n\n", 1)[0]
    lines = table.splitlines()
    assert lines[0].startswith("| offset | size | field |"), lines[0]
    return [
        [cell.strip() for cell in line.strip("|").split("|")][:3]
        for line in lines[2:]
    ]


@pytest.mark.parametrize("heading", list(SECTIONS))
def test_header_table_matches_the_layout(heading):
    layout = SECTIONS[heading]
    expected, offset = [], 0
    for field, code, _bounds in layout.fields:
        size = struct.calcsize("<" + code)
        expected.append((offset, size, field, code))
        offset += size
    assert offset == layout.size
    rows = header_rows(heading)
    documented = []
    for at, size, cell in rows[: len(expected)]:
        match = FIELD.match(cell)
        assert match, f"{heading}: unparsable field cell {cell!r}"
        documented.append(
            (int(at), int(size), match.group(1), TYPES[match.group(2)])
        )
    assert documented == expected
    tail = rows[len(expected) :]
    assert len(tail) <= 1, f"{heading}: rows after the header: {tail}"
    for at, _size, _cell in tail:
        assert int(at) == layout.size, f"{heading}: tail at offset {at}"
