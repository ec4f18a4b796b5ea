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


def _same(a, b):
    assert (a.n, a.root, a.edges, a.scale) == (b.n, b.root, b.edges, b.scale)
    assert a.links == b.links
    assert all(type(lk.weight) is int for lk in a.links)


def test_integer_weights_build_the_same_instance_as_rationals():
    # All-integer input skips Fraction and scaling; "w/1" and "w" strings
    # still take the rational path, and must land on the identical Instance.
    inst = wtap.gen_random(n=40, link_count=60, weight_max=20, seed=3)
    ends = [(lk.u, lk.v, lk.weight) for lk in inst.links]
    head = f"{inst.n} {inst.root}\n" + "".join(f"{u} {v}\n" for u, v in inst.edges)
    text_int = head + f"{len(ends)}\n" + "".join(f"{u} {v} {w}\n" for u, v, w in ends)
    text_rat = head + f"{len(ends)}\n" + "".join(f"{u} {v} {w}/1\n" for u, v, w in ends)
    _same(wio.loads_text(text_int), wio.loads_text(text_rat))
    _same(wio.loads_text(text_int), inst)
    doc = json.loads(wio.dumps(inst))
    _same(wio.loads_json(json.dumps(doc)), inst)
    for lk in doc["links"]:
        lk["w"] = str(lk["w"])
    _same(wio.loads_json(json.dumps(doc)), inst)


def test_one_rational_weight_scales_every_weight():
    text = "3 0\n0 1\n1 2\n2\n0 1 3\n1 2 0.5\n"
    inst = wio.loads_text(text)
    assert inst.scale == 2
    assert [lk.weight for lk in inst.links] == [6, 1]
    doc = '{"n":2,"root":0,"edges":[[0,1]],"links":[{"u":0,"v":1,"w":2.0}],"meta":{"scale":3}}'
    inst = wio.loads_json(doc)
    assert inst.scale == 3
    assert inst.links[0].weight == 2 and type(inst.links[0].weight) is int


@pytest.mark.parametrize("links, match", [
    ('[{"u":0,"v":1,"w":null}]', "link 0 weight is not a number: None"),
    ('[{"u":0,"v":1,"w":[1]}]', r"link 0 weight is not a number: \[1\]"),
    ('[{"u":0,"v":1,"w":{"p":1}}]', "link 0 weight is not a number"),
    ('[{"u":0,"v":1,"w":true}]', "link 0 weight is not a number: True"),
    ('[{"u":null,"v":1,"w":1}]', "link 0 endpoints None, 1 are not integers"),
    ('[{"u":0,"v":1.5,"w":1}]', "link 0 endpoints 0, Fraction"),
    ('[{"u":0,"v":"1","w":1}]', "link 0 endpoints 0, '1' are not integers"),
    ('[{"u":0,"v":1,"w":1}, 7]', "link 1 is not an object: 7"),
    ('5', "'links' is not a list: 5"),
    ('{"u":0,"v":1,"w":1}', "'links' is not a list"),
])
def test_malformed_json_link_raises_value_error(links, match):
    doc = '{"n":2,"root":0,"edges":[[0,1]],"links":' + links + '}'
    with pytest.raises(ValueError, match=match):
        wio.loads_json(doc)


@pytest.mark.parametrize("header, match", [
    ('"n":2,"root":0,"edges":null', "'edges' is not a list: None"),
    ('"n":2,"root":0,"edges":[5]', "edge 0 is not a pair of integers: 5"),
    ('"n":2,"root":0,"edges":[[0]]', r"edge 0 is not a pair of integers: \[0\]"),
    ('"n":2,"root":0,"edges":[[0,1,2]]', "edge 0 is not a pair of integers"),
    ('"n":2,"root":0,"edges":[[0,true]]', "edge 0 is not a pair of integers"),
    ('"n":2,"root":0,"edges":[[0,1.0]]', "edge 0 is not a pair of integers"),
    ('"n":2,"root":0,"edges":{"0":1}', "'edges' is not a list"),
    ('"n":2.5,"root":0,"edges":[[0,1]]', "'n' Fraction.* and 'root' 0 must be integers"),
    ('"n":null,"root":0,"edges":[[0,1]]', "'n' None and 'root' 0 must be integers"),
    ('"n":2,"root":true,"edges":[[0,1]]', "'n' 2 and 'root' True must be integers"),
    ('"n":"2","root":0,"edges":[[0,1]]', "must be integers"),
    ('"n":2,"root":0,"edges":[[0,1]],"meta":null', "'meta' is not an object"),
    ('"n":2,"root":0,"edges":[[0,1]],"meta":{"scale":2.5}', "positive integer 'scale'"),
    ('"n":2,"root":0,"edges":[[0,1]],"meta":{"scale":0}', "positive integer 'scale'"),
])
def test_malformed_json_header_raises_value_error(header, match):
    doc = '{' + header + ',"links":[{"u":0,"v":1,"w":1}]}'
    with pytest.raises(ValueError, match=match):
        wio.loads_json(doc)


def test_json_instance_must_be_an_object():
    with pytest.raises(ValueError, match="instance is not an object"):
        wio.loads_json('[{"n":2}]')
