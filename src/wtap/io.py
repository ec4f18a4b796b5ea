"""Instance parsing and serialization.

Two textual formats are accepted:

* JSON::

    {"n": 5, "root": 0, "edges": [[0,1],...], "links": [{"u":1,"v":2,"w":3},...]}

* line-oriented text::

    n root
    u v            # n-1 edge lines
    m
    u v w          # m link lines

Weights may be rational (decimals in JSON, ``p/q`` or decimals in text).
They are scaled by the least common multiple of their denominators so the
stored instance carries positive integer weights; the scale factor is
recorded on the instance and in the ``meta`` block of serialized output.
When every weight is an integer, the common case, the weights are kept as
they are with scale 1, and no ``Fraction`` is built.
In JSON, ``n``, ``root``, ``meta.scale`` and the endpoints of edges and
links must be integers (not booleans), ``edges`` a list of pairs and a link
weight a number; anything else (``null``, ``2.5``, ``true``, a list) is a
``ValueError``.
Serialization round-trips byte-exactly after that scaling.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from pathlib import Path

from .model import Instance, Link


def _scale_weights(raw: list[int | Fraction]) -> tuple[list[int], int]:
    if all(type(w) is int for w in raw):
        return raw, 1
    denom = lcm(*(w.denominator for w in raw))
    return [int(w * denom) for w in raw], denom


def _build(n: int, root: int, edges: list[tuple[int, int]],
           raw_links: list[tuple[int, int, int | Fraction]],
           prior_scale: int = 1) -> Instance:
    weights, scale = _scale_weights([w for _, _, w in raw_links])
    links = [Link(u, v, w) for (u, v, _), w in zip(raw_links, weights)]
    return Instance(n=n, root=root, edges=edges, links=links,
                    scale=scale * prior_scale)


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            p, q = text.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in weight {text!r}") from None


def loads_json(text: str) -> Instance:
    data = json.loads(text, parse_float=Fraction, parse_int=int)
    if type(data) is not dict:
        raise ValueError(f"instance is not an object: {data!r}")
    # ``type(x) is int`` also refuses booleans, which are ints to isinstance.
    n, root = data["n"], data["root"]
    if type(n) is not int or type(root) is not int:
        raise ValueError(f"'n' {n!r} and 'root' {root!r} must be integers")
    edges = data.get("edges", [])
    if type(edges) is not list:
        raise ValueError(f"'edges' is not a list: {edges!r}")
    for i, e in enumerate(edges):
        if not (type(e) is list and len(e) == 2
                and type(e[0]) is int and type(e[1]) is int):
            raise ValueError(f"edge {i} is not a pair of integers: {e!r}")
    items = data["links"]
    if not isinstance(items, list):
        raise ValueError(f"'links' is not a list: {items!r}")
    raw_links = []
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise ValueError(f"link {i} is not an object: {item!r}")
        u, v, w = item["u"], item["v"], item["w"]
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"link {i} endpoints {u!r}, {v!r} are not integers")
        if isinstance(w, str):
            w = _parse_rational(w)
        elif type(w) is not int and type(w) is not Fraction:  # nor a boolean
            raise ValueError(f"link {i} weight is not a number: {w!r}")
        raw_links.append((u, v, w))
    meta = data.get("meta", {})
    prior = meta.get("scale", 1) if type(meta) is dict else None
    if type(prior) is not int or prior < 1:
        raise ValueError(f"'meta' is not an object with a positive integer 'scale': {meta!r}")
    return _build(n, root, edges, raw_links, prior)


def _fields(lines: list[str], i: int, count: int, what: str) -> list[str]:
    """The first ``count`` fields of line ``i``; ValueError if absent or short."""
    if not 0 <= i < len(lines):
        raise ValueError(f"missing {what} line")
    parts = lines[i].split()
    if len(parts) < count:
        raise ValueError(f"{what} line {lines[i]!r} needs {count} fields")
    return parts[:count]


def loads_text(text: str) -> Instance:
    lines = [ln.split("#")[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n, root = (int(x) for x in _fields(lines, 0, 2, "header"))
    edges = []
    for i in range(1, n):
        u, v = _fields(lines, i, 2, "edge")
        edges.append((int(u), int(v)))
    m = int(_fields(lines, n, 1, "link count")[0])
    if len(lines) - n - 1 != m:
        raise ValueError(f"declared {m} links, found {len(lines) - n - 1} link lines")
    ends, texts = [], []
    for i in range(n + 1, n + 1 + m):
        u, v, w = _fields(lines, i, 3, "link")
        ends.append((int(u), int(v)))
        texts.append(w)
    try:
        weights = [int(w) for w in texts]
    except ValueError:
        weights = [_parse_rational(w) for w in texts]
    raw_links = [(u, v, w) for (u, v), w in zip(ends, weights)]
    return _build(n, root, edges, raw_links)


def loads(text: str) -> Instance:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return loads_json(text)
    return loads_text(text)


def load(path: str | Path) -> Instance:
    return loads(Path(path).read_text())


def dumps(instance: Instance) -> str:
    """Canonical JSON with integer (scaled) weights; stable byte-for-byte."""
    doc = {
        "n": instance.n,
        "root": instance.root,
        "edges": [[u, v] for u, v in instance.edges],
        "links": [{"u": lk.u, "v": lk.v, "w": lk.weight} for lk in instance.links],
        "meta": {"scale": instance.scale},
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def dump(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps(instance) + "\n")
