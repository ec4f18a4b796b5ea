"""Parsing, weight scaling, and round-trip serialization."""

import json

import pytest

import wtap
from wtap import io as wio


JSON_DOC = '{"n": 3, "root": 0, "edges": [[0,1],[1,2]], "links": [{"u":0,"v":2,"w":7}]}'

TEXT_DOC = """
3 0
0 1
1 2
1
0 2 7
"""


def test_loads_json_and_text_agree():
    a = wio.loads(JSON_DOC)
    b = wio.loads(TEXT_DOC)
    assert wio.dumps(a) == wio.dumps(b)
    assert a.scale == 1
    assert a.links[0].weight == 7


def test_rational_weights_scaled_to_integers():
    doc = '{"n": 3, "root": 0, "edges": [[0,1],[1,2]], "links": [{"u":0,"v":1,"w":0.5},{"u":1,"v":2,"w":0.25}]}'
    inst = wio.loads(doc)
    assert inst.scale == 4
    assert [lk.weight for lk in inst.links] == [2, 1]


def test_text_fraction_weights():
    doc = "3 0\n0 1\n1 2\n2\n0 1 1/3\n1 2 2\n"
    inst = wio.loads(doc)
    assert inst.scale == 3
    assert [lk.weight for lk in inst.links] == [1, 6]


def test_roundtrip_byte_exact():
    doc = '{"n": 3, "root": 0, "edges": [[0,1],[1,2]], "links": [{"u":0,"v":1,"w":0.1},{"u":1,"v":2,"w":1.5}]}'
    first = wio.dumps(wio.loads(doc))
    again = wio.dumps(wio.loads(first))
    assert first == again
    meta = json.loads(first)["meta"]
    assert meta["scale"] == 10
    assert [lk["w"] for lk in json.loads(first)["links"]] == [1, 15]


def test_dump_load_file(tmp_path, star_ab):
    path = tmp_path / "inst.json"
    wio.dump(star_ab, path)
    again = wio.load(path)
    assert wio.dumps(again) == wio.dumps(star_ab)


def test_decimal_float_parsed_exactly():
    # 0.1 must become 1/10, not the binary float value
    inst = wio.loads('{"n":2,"root":0,"edges":[[0,1]],"links":[{"u":0,"v":1,"w":0.1}]}')
    assert inst.scale == 10
    assert inst.links[0].weight == 1


@pytest.mark.parametrize("doc, match", [
    ("", "missing header"),
    ("3 0\n0 1\n", "missing edge"),
    ("3 0\n0\n1 2\n1\n0 2 7\n", "edge line '0' needs 2"),
    ("3 0\n0 1\n1 2\n1\n0 2\n", "link line '0 2' needs 3"),
    ("3 0\n0 1\n1 2\n3\n0 2 7\n", "declared 3 links, found 1"),
    ("3 0\n0 1\n1 2\n1\n0 2 7\n0 1 1\n", "declared 1 links, found 2"),
    ("3 0\n0 1\n1 2\n1\n0 2 7/0\n", "zero denominator"),
])
def test_malformed_text_raises_value_error(doc, match):
    with pytest.raises(ValueError, match=match):
        wio.loads(doc)
