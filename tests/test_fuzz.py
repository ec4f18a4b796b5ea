"""Seeded fuzz of the instance boundary: mutated JSON and text instances
through ``wtap.io.loads`` and every ``wtap.cli`` command that reads one.

Every case must end in a typed error or an exit code of 0, 2 or 3, never
in a traceback.
"""

import json
import random

import wtap
from wtap import io as wio
from wtap.cli import main

# Values a mutation may put in place of a JSON value or a text token.
_JSON_VALUES = [None, True, False, 0, -1, 1, 2, 7, 2 ** 70, -(2 ** 70), 2.5,
                "x", "", "1/0", "3/2", "-4", "0.25", [], {}, [1], [0, 1],
                [1, 2, 3], {"u": 0}, [[0, 1]]]
_TOKENS = ["-1", "0", "1", "2", "9", "x", "1/0", "2/3", "-5/7", "1e400",
           "1e-9", "99999999999999999999999", "nan", "inf", "1.5", "0.0",
           "#", "{", "3 4", "1/-2"]

_COMMANDS = [["solve", "--algorithm", "uplink2"],
             ["solve", "--algorithm", "relgreedy", "--eps", "1"],
             ["exact"],
             ["ratio", "--k", "2"],
             ["component", "--rho", "1/2", "--k", "2"]]


def _paths(doc):
    """Every (container, key) under doc, in a fixed order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _paths(value)


def _mutate_json(rng, text):
    doc = json.loads(text)
    for _ in range(rng.randint(1, 2)):
        spots = list(_paths(doc))
        if not spots:
            break
        box, key = rng.choice(spots)
        op = rng.randrange(4)
        if op == 0:
            box[key] = json.loads(json.dumps(rng.choice(_JSON_VALUES)))
        elif op == 1:
            del box[key]
        elif op == 2 and isinstance(box, list):
            box.insert(key, json.loads(json.dumps(box[key])))
        elif isinstance(box, dict):
            box[rng.choice(["n", "root", "edges", "links", "meta", "w",
                            "extra"])] = rng.choice(_JSON_VALUES)
    out = json.dumps(doc)
    if rng.random() < 0.15:
        out = out[:rng.randrange(len(out) + 1)]
    return out


def _mutate_text(rng, text):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(5)
        i = rng.randrange(len(lines)) if lines else 0
        if not lines:
            lines.append(rng.choice(_TOKENS))
        elif op == 0:
            fields = lines[i].split() or [""]
            fields[rng.randrange(len(fields))] = rng.choice(_TOKENS)
            lines[i] = " ".join(fields)
        elif op == 1:
            del lines[i]
        elif op == 2:
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif op == 3:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] += " " + rng.choice(_TOKENS)
    out = "\n".join(lines) + "\n"
    if rng.random() < 0.15:
        out = out[:rng.randrange(len(out) + 1)]
    return out


def _as_text(inst):
    rows = [f"{inst.n} {inst.root}"]
    rows += [f"{u} {v}" for u, v in inst.edges]
    rows.append(str(len(inst.links)))
    rows += [f"{lk.u} {lk.v} {lk.weight}" for lk in inst.links]
    return "\n".join(rows) + "\n"


def _cases(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, 6)
        inst = wtap.gen_random(n, n + rng.randint(0, 3), 20, 900 + i)
        if i % 2:
            yield "json", _mutate_json(rng, wio.dumps(inst))
        else:
            yield "text", _mutate_text(rng, _as_text(inst))


def test_fuzzed_instances_fail_typed(tmp_path, capsys):
    path = tmp_path / "inst"
    codes = {0: 0, 2: 0, 3: 0}
    parsed = 0
    for kind, text in _cases(120, 17):
        try:
            wio.loads(text)
            parsed += 1
        except (ValueError, KeyError):
            pass
        path.write_text(text)
        for cmd in _COMMANDS:
            code = main(cmd + [str(path)])
            capsys.readouterr()
            assert code in codes, (kind, text, cmd, code)
            codes[code] += 1
    # the mutations reach the solvers as well as the parser's errors
    assert parsed > 10 and codes[0] > 50 and codes[2] > 50
