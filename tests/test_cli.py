"""CLI surface: subcommands, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wtap
from wtap import component_dp, model
from wtap.bench import bench
from wtap.cli import main

from fig_helpers import fig3_solution_ids


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(code):
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    src = str(Path(wtap.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def test_gen_and_solve_roundtrip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    code, _, _ = run_cli(["gen", "fig2", "--d", "4", "--M", "10",
                          "--out", str(inst_path)], capsys)
    assert code == 0
    code, out, _ = run_cli(["solve", "--algorithm", "uplink2", str(inst_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == 88
    code, out, _ = run_cli(["solve", "--algorithm", "relgreedy", "--eps", "1",
                            str(inst_path)], capsys)
    doc = json.loads(out)
    assert doc["weight"] == 44 and doc["k"] == 2
    assert doc["trace"]["probes"] > 0 and doc["trace"]["states"] > 0


def test_gen_random_seed_flag(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["gen", "random", "--n", "9", "--links", "6", "--seed", "5",
             "--out", str(p1)], capsys)
    run_cli(["gen", "random", "--n", "9", "--links", "6", "--seed", "5",
             "--out", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


def test_exact_ratio_component(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli(["gen", "fig2", "--d", "3", "--M", "5", "--out", str(inst_path)], capsys)
    code, out, _ = run_cli(["exact", str(inst_path)], capsys)
    assert code == 0 and json.loads(out)["weight"] == 18
    code, out, _ = run_cli(["ratio", "--k", "2", str(inst_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "rho" in doc and doc["probes"] > 0 and doc["states"] > 0
    code, out, _ = run_cli(["component", "--rho", "1/2", "--k", "2",
                            str(inst_path)], capsys)
    assert code == 0
    assert "slack" in json.loads(out)


def test_search_outputs_pinned(tmp_path, capsys):
    # pinned: the bytes of ``solve --algorithm relgreedy``, ``ratio`` and
    # ``component`` on generated instances; at rho = 2 the components print
    # both label forms, ["orig", link id] and ["up", top, bottom]
    h = hashlib.sha256()
    labels = set()
    for n, seed in ((10, 1), (14, 2), (18, 3), (22, 4)):
        path = tmp_path / f"i{seed}.json"
        wtap.io.dump(wtap.gen_random(n, n, 20, seed), path)
        for args in (["solve", "--algorithm", "relgreedy", "--eps", "1"],
                     ["ratio", "--k", "2"],
                     ["component", "--rho", "2", "--k", "2"]):
            code, out, _ = run_cli(args + [str(path)], capsys)
            assert code == 0
            h.update(out.encode())
            labels.update(sl["label"][0] for sl in json.loads(out).get("component", ()))
    assert labels == {"orig", "up"}
    assert h.hexdigest()[:16] == "40332b64e7723871"


def test_package_exports():
    # ``__all__`` is the public API, spelled out: each name resolves, and
    # the search-alphabet helpers, which ``ComponentSearch.links`` replaced,
    # are gone
    assert set(wtap.__all__) == {
        "BudgetError", "BudgetExceededError", "ComponentSearch", "CoverWitness",
        "Decomposition", "DependencyGraph", "EmptyUError", "GreedyTrace",
        "InfeasibleError", "Instance", "InvalidEpsilonError", "KThinTable",
        "Link", "NotABranchingError", "OracleBudget", "PlanTooLargeError",
        "RatioResult", "RootedTreeIndex", "SearchLink", "Solution",
        "TableTooLargeError", "UpLinkSolution", "UpPath", "ValidationIssue",
        "VerticalCostTable", "WeightOverflowError", "apex",
        "best_ratio_component", "brute_best_kthin", "brute_uplink_cover",
        "build_dependency_graph", "cheapest_disjoint_uplink_cover",
        "compute_cover_witness", "decide", "decompose", "dump", "dumps",
        "epsilon_to_k", "exact_opt", "gen_fig2", "gen_fig3", "gen_random",
        "is_k_thin", "load", "loads", "solve", "two_approx_only", "validate",
        "verify_cover_structure", "vertical_cost_table"}
    assert len(wtap.__all__) == len(set(wtap.__all__))
    # each name is its defining submodule's object, not a copy
    for name in wtap.__all__:
        obj = getattr(wtap, name)
        assert obj.__module__.startswith("wtap.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert wtap.oracle.BudgetExceededError is wtap.model.BudgetExceededError
    for budget in (wtap.BudgetExceededError, wtap.TableTooLargeError,
                   wtap.PlanTooLargeError):
        assert issubclass(budget, wtap.BudgetError)
    assert set(wtap.__all__) <= set(dir(wtap))
    assert {"greedy", "bench", "cli"} <= set(dir(wtap))
    with pytest.raises(AttributeError, match="no_such_name"):
        wtap.no_such_name
    star = {}
    exec("from wtap import *", star)
    assert set(wtap.__all__) <= star.keys()
    for gone in ("original_search_links", "uplink_search_links",
                 "shadow_closure_search_links"):
        assert not hasattr(wtap, gone) and not hasattr(component_dp, gone)


def test_decompose_command(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    sol_path = tmp_path / "sol.json"
    run_cli(["gen", "fig2", "--d", "4", "--M", "10", "--out", str(inst_path)], capsys)
    run_cli(["exact", str(inst_path), "--out", str(sol_path)], capsys)
    code, out, _ = run_cli(["decompose", "--eps", "1/2", "--solution",
                            str(sol_path), str(inst_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["structure_checks"]["ok"]
    assert 2 * doc["removed_weight"] <= doc["u_weight"]


def test_decompose_builds_each_witness_once(tmp_path, capsys, monkeypatch):
    # the structure checks read the dependency graph decompose built, so
    # each up-link's cover witness is computed once
    inst_path = tmp_path / "inst.json"
    sol_path = tmp_path / "sol.json"
    run_cli(["gen", "fig3", "--m", "6", "--out", str(inst_path)], capsys)
    inst = wtap.load(inst_path)
    sol_path.write_text(json.dumps(fig3_solution_ids(inst)))
    calls = []
    witness = wtap.decomposition.compute_cover_witness
    monkeypatch.setattr(wtap.decomposition, "compute_cover_witness",
                        lambda *args: calls.append(args) or witness(*args))
    code, out, _ = run_cli(["decompose", "--eps", "1/2", "--solution",
                            str(sol_path), str(inst_path)], capsys)
    assert code == 0 and json.loads(out)["structure_checks"]["ok"]
    uplinks = wtap.cheapest_disjoint_uplink_cover(inst).paths
    assert len(uplinks) > 1
    assert [args[2] for args in calls] == list(uplinks)


@pytest.mark.parametrize("solution", [
    '{"links": [99]}', '["a"]', '[1.5]', '[true]', '{"links": [-1]}',
    '{"solution": [0]}', '{"links": [0]}',
])
def test_decompose_rejects_bad_solution(tmp_path, capsys, solution):
    # ids that are not link ids, and a set that leaves edges uncovered: exit
    # 2 and one error line, no traceback
    inst_path = tmp_path / "inst.json"
    sol_path = tmp_path / "sol.json"
    run_cli(["gen", "random", "--n", "8", "--links", "10", "--seed", "3",
             "--out", str(inst_path)], capsys)
    sol_path.write_text(solution)
    code, out, err = run_cli(["decompose", "--eps", "1/2", "--solution",
                              str(sol_path), str(inst_path)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: solution")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["gen", "fig3", "--m", "2"],
    ["solve", "--algorithm", "uplink2", "{inst}"],
    ["solve", "--algorithm", "relgreedy", "{inst}"],
    ["exact", "{inst}"],
    ["ratio", "--k", "2", "{inst}"],
    ["component", "--rho", "1/2", "--k", "2", "{inst}"],
    ["decompose", "--eps", "1/2", "--solution", "{sol}", "{inst}"],
    ["bench", "--config", "{cfg}"],
    ["bench", "--config", "{cfg}", "--format", "csv"],
], ids=["gen", "solve-uplink2", "solve-relgreedy", "exact", "ratio", "component",
        "decompose", "bench-json", "bench-csv"])
def test_unwritable_out_exit_code(tmp_path, capsys, args):
    # an --out in a missing directory: exit 2 and one error line, no traceback
    paths = {"inst": tmp_path / "inst.json", "sol": tmp_path / "sol.json",
             "cfg": tmp_path / "cfg.json"}
    run_cli(["gen", "fig2", "--d", "3", "--M", "5", "--out", str(paths["inst"])],
            capsys)
    run_cli(["exact", str(paths["inst"]), "--out", str(paths["sol"])], capsys)
    paths["cfg"].write_text(json.dumps({"instances": [], "algorithms": []}))
    bad = tmp_path / "missing" / "x.json"
    code, out, err = run_cli([a.format(**paths) for a in args]
                             + ["--out", str(bad)], capsys)
    assert code == 2
    assert out == "" and err.startswith(f"error: cannot write {bad}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":3,"root":0,"edges":[[0,1],[1,2]],'
                   '"links":[{"u":0,"v":1,"w":2}]}')
    code, _, err = run_cli(["solve", "--algorithm", "uplink2", str(bad)], capsys)
    assert code == 2
    assert "UncoverableEdge" in err


def test_malformed_json_link_exit_code(tmp_path, capsys):
    # a link field of the wrong type: an error line, no traceback
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":2,"root":0,"edges":[[0,1]],'
                   '"links":[{"u":0,"v":1,"w":null}]}')
    code, out, err = run_cli(["solve", "--algorithm", "uplink2", str(bad)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: cannot parse instance")
    assert "Traceback" not in err


@pytest.mark.parametrize("header", [
    '"n":2,"root":0,"edges":null',
    '"n":2,"root":0,"edges":[5]',
    '"n":2.5,"root":0,"edges":[[0,1]]',
    '"n":2,"root":true,"edges":[[0,1]]',
    '"n":null,"root":0,"edges":[[0,1]]',
])
def test_malformed_json_header_exit_code(tmp_path, capsys, header):
    # a header field of the wrong type: exit 2, an error line, no traceback
    bad = tmp_path / "bad.json"
    bad.write_text('{' + header + ',"links":[{"u":0,"v":1,"w":1}]}')
    code, out, err = run_cli(["solve", "--algorithm", "uplink2", str(bad)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: cannot parse instance")
    assert "Traceback" not in err


def test_deeply_nested_json_exit_code(tmp_path, capsys):
    # JSON nested past the interpreter's recursion limit, as an instance, a
    # bench config or a file a config names: exit 2, one error line
    deep = "[" * 5000 + "]" * 5000
    inst = tmp_path / "deep.json"
    inst.write_text('{"n": ' + deep + '}')
    code, out, err = run_cli(["solve", "--algorithm", "uplink2", str(inst)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: cannot parse instance")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(deep)
    code, out, err = run_cli(["bench", "--config", str(cfg)], capsys)
    assert code == 2 and err.startswith("error: cannot parse config")
    cfg.write_text(json.dumps({"instances": [{"kind": "file", "path": str(inst)}]}))
    code, out, err = run_cli(["bench", "--config", str(cfg)], capsys)
    assert code == 2 and err.startswith(f"error: invalid config {cfg}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    run_cli(["gen", "fig3", "--m", "1", "--out", str(inst)], capsys)
    sol = tmp_path / "sol.json"
    sol.write_text(deep)
    code, out, err = run_cli(["decompose", "--eps", "1/2", "--solution",
                              str(sol), str(inst)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: cannot parse solution file")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_malformed_text_exit_code(tmp_path, capsys):
    # A truncated file and a link line without a weight: an error line, no traceback.
    for i, doc in enumerate(["3 0\n0 1\n", "3 0\n0 1\n1 2\n1\n0 2\n"]):
        bad = tmp_path / f"bad{i}.txt"
        bad.write_text(doc)
        code, out, err = run_cli(["solve", "--algorithm", "uplink2", str(bad)], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: cannot parse instance")


REMOVED_FLAGS = ("--k-override", "--full-shadows")


@pytest.mark.parametrize("args, flag", [
    (["solve", "--algorithm", "relgreedy", "--eps", "0"], "--eps"),
    (["solve", "--algorithm", "relgreedy", "--eps=-1/2"], "--eps"),
    (["solve", "--algorithm", "relgreedy", "--k-override", "1"], "--k-override"),
    (["ratio", "--k", "0"], "--k"),
    (["component", "--rho", "1/2", "--k", "0"], "--k"),
    (["component", "--rho", "-1", "--k", "2"], "--rho"),
    (["decompose", "--eps", "0", "--solution", "sol.json"], "--eps"),
    (["exact", "--max-links", "-1"], "--max-links"),
    (["solve", "--algorithm", "relgreedy", "--full-shadows"], "--full-shadows"),
])
def test_bad_argument_exit_code(tmp_path, capsys, args, flag):
    # out-of-range numbers are usage errors: exit 2 and an error line; so
    # are the removed flags (eps is the solver's only knob)
    inst_path = tmp_path / "inst.json"
    run_cli(["gen", "fig2", "--d", "3", "--M", "5", "--out", str(inst_path)], capsys)
    with pytest.raises(SystemExit) as exc:
        main(args + [str(inst_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    want = (f"error: unrecognized arguments: {flag}" if flag in REMOVED_FLAGS
            else f"error: argument {flag}")
    assert want in err and "Traceback" not in err


@pytest.mark.parametrize("args, flag", [
    (["random", "--n", "0", "--links", "3"], "--n"),
    (["random", "--n", "5", "--links", "-1"], "--links"),
    (["random", "--n", "5", "--links", "3", "--weight-max", "0"], "--weight-max"),
    (["random", "--n", "5", "--links", "3", "--seed", "-1"], "--seed"),
    (["fig2", "--d", "0", "--M", "5"], "--d"),
    (["fig2", "--d", "1", "--M", "5"], "--d"),
    (["fig2", "--d", "4", "--M", "0"], "--M"),
    (["fig3", "--m", "0"], "--m"),
    (["random", "--n", "5", "--links", "3", "--weight-max", str(2**63)], "--weight-max"),
])
def test_bad_gen_argument_exit_code(capsys, args, flag):
    # numbers no instance can be generated from are usage errors too
    with pytest.raises(SystemExit) as exc:
        main(["gen"] + args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}" in captured.err
    assert "Traceback" not in captured.err


def test_budget_exit_code(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli(["gen", "random", "--n", "8", "--links", "12", "--seed", "1",
             "--out", str(inst_path)], capsys)
    code, _, err = run_cli(["exact", "--max-links", "3", str(inst_path)], capsys)
    assert code == 3


def test_table_size_budget_exit_code(tmp_path, capsys, monkeypatch):
    # tree tables past the slot budget: exit 3 and an error line, before
    # anything is allocated
    inst_path = tmp_path / "inst.json"
    run_cli(["gen", "fig2", "--d", "4", "--M", "10", "--out", str(inst_path)], capsys)
    monkeypatch.setattr(model, "TABLE_SLOT_BUDGET", 1)
    code, out, err = run_cli(["solve", "--algorithm", "uplink2", str(inst_path)], capsys)
    assert code == 3
    assert out == "" and err.startswith("error: vertical cost table needs")
    assert "Traceback" not in err


def test_plan_size_budget_exit_code(tmp_path, capsys, monkeypatch):
    # a component-DP plan listing more candidates than the budget: exit 3
    # and an error line
    inst_path = tmp_path / "inst.json"
    run_cli(["gen", "fig2", "--d", "4", "--M", "10", "--out", str(inst_path)], capsys)
    monkeypatch.setattr(component_dp, "PLAN_CANDIDATE_BUDGET", 5)
    for cmd in (["solve", "--algorithm", "relgreedy"], ["ratio", "--k", "2"]):
        code, out, err = run_cli(cmd + [str(inst_path)], capsys)
        assert code == 3
        assert out == "" and err.startswith("error: component-DP plan lists more")
        assert "Traceback" not in err


def test_weight_overflow_exit_code(tmp_path, capsys):
    # weights near 2**62 overflow the int64 tables of uplink2: exit 2, an
    # error line and no traceback; the exact oracle still answers exactly
    inst_path = tmp_path / "big.txt"
    inst_path.write_text(f"3 0\n0 1\n1 2\n3\n0 2 {1 << 62}\n"
                         f"0 1 {(1 << 62) - 1}\n1 2 2\n")
    code, out, err = run_cli(["solve", "--algorithm", "uplink2", str(inst_path)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    code, out, _ = run_cli(["exact", str(inst_path)], capsys)
    assert code == 0
    assert json.loads(out) == {"weight": 1 << 62, "links": [0]}


def test_package_loads_submodules_on_first_use():
    # a fresh ``import wtap`` loads no submodule; a name read while its
    # submodule is patched is not kept once the patch is undone
    out = run_fresh(
        "import sys, wtap\n"
        "print(sorted(m for m in sys.modules if m.startswith('wtap.')))\n"
        "import wtap.greedy as g\n"
        "real, g.solve = g.solve, lambda *a: None\n"
        "assert wtap.solve is g.solve\n"
        "g.solve = real\n"
        "assert wtap.solve is wtap.greedy.solve is real\n"
        "assert 'solve' not in vars(wtap)\n")
    assert out == "[]\n"


def test_solving_does_not_import_numpy(tmp_path):
    # no wtap module imports numpy; the generators draw numpy's PCG64
    # stream in plain Python
    run_fresh("import sys, wtap, wtap.bench, wtap.cli; "
              "sys.exit('numpy' in sys.modules)")
    # each command imports only its own modules
    inst, out = str(tmp_path / "inst.json"), str(tmp_path / "out.json")
    assert main(["gen", "random", "--n", "24", "--links", "24", "--out", inst]) == 0
    not_solve = {"decomposition", "oracle", "bench", "generators"}
    not_gen = {"component_dp", "greedy", "ratio", "decomposition", "oracle", "bench"}
    for args, absent in (
            (["solve", "--algorithm", "uplink2", "--out", out, inst], not_solve),
            (["solve", "--algorithm", "relgreedy", "--out", out, inst], not_solve),
            (["gen", "fig3", "--m", "3", "--out", out], not_gen)):
        loaded = run_fresh(
            "import sys\n"
            "from wtap.cli import main\n"
            f"assert main({args!r}) == 0\n"
            "assert 'numpy' not in sys.modules\n"
            "print(*(m for m in sys.modules if m.startswith('wtap.')))\n").split()
        assert "wtap.cli" in loaded and "wtap.io" in loaded
        assert not {m.removeprefix("wtap.") for m in loaded} & absent, (args, loaded)


def test_generating_does_not_import_numpy(tmp_path):
    # the random stream is plain Python, drawn as numpy's PCG64 would draw it
    out = tmp_path / "inst.json"
    code = (
        "import sys\n"
        "from wtap import gen_fig2, gen_fig3, gen_random\n"
        "from wtap.cli import main\n"
        f"assert main(['gen', 'random', '--n', '9', '--links', '6', '--seed', '5',"
        f" '--out', {str(out)!r}]) == 0\n"
        "gen_random(12, 20, 2**40, 7)\n"
        "gen_fig2(4, 10)\n"
        "gen_fig3(3)\n"
        "sys.exit('numpy' in sys.modules)\n")
    run_fresh(code)
    assert json.loads(out.read_text())["n"] == 9


def test_bench_json_csv_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "instances": [
            {"kind": "random_batch", "count": 4, "n_min": 3, "n_max": 6,
             "weight_max": 6, "seed": 9},
            {"kind": "fig3", "m": 2},
        ],
        "algorithms": [{"name": "uplink2"}, {"name": "relgreedy", "eps": "1"}],
        "oracle": {"max_links": 16},
    }))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(["bench", "--config", str(cfg), "--out", str(r1)], capsys)[0] == 0
    assert run_cli(["bench", "--config", str(cfg), "--out", str(r2)], capsys)[0] == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["schema_version"] == 2
    assert "backend" not in report["metadata"]
    assert len(report["rows"]) == 10
    assert all(row["status"] == "ok" for row in report["rows"])
    # greedy never loses to the baseline on any row
    by_inst = {}
    for row in report["rows"]:
        by_inst.setdefault(row["instance"], {})[row["algorithm"]] = row["weight"]
    for algs in by_inst.values():
        grd = [w for name, w in algs.items() if name.startswith("relgreedy")]
        assert grd and grd[0] <= algs["uplink2"]
    code, out, _ = run_cli(["bench", "--config", str(cfg), "--format", "csv"], capsys)
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("instance,algorithm,n,links,weight")


def test_bench_fifty_random_rows(tmp_path, capsys):
    # greedy ratio never exceeds the baseline ratio on any row
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "instances": [{"kind": "random_batch", "count": 50, "n_min": 2,
                       "n_max": 10, "weight_max": 7, "seed": 77}],
        "algorithms": [{"name": "uplink2"}, {"name": "relgreedy", "eps": "1"}],
        "oracle": {"max_links": 18},
    }))
    code, out, _ = run_cli(["bench", "--config", str(cfg)], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 100
    from fractions import Fraction
    by_inst = {}
    for row in report["rows"]:
        assert row["status"] == "ok"
        by_inst.setdefault(row["instance"], {})[row["algorithm"]] = \
            Fraction(row["ratio"])
    for algs in by_inst.values():
        assert algs["relgreedy,eps=1"] <= algs["uplink2"]


def test_bench_fig2_sweep_matches_exact(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "instances": [{"kind": "fig2", "d": d, "M": 10} for d in (2, 4, 6)],
        "algorithms": [{"name": "relgreedy", "eps": "1"}],
        "oracle": {"max_links": 19},
    }))
    code, out, _ = run_cli(["bench", "--config", str(cfg)], capsys)
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert row["weight"] == row["exact_weight"]


def test_solve_eps_two_gives_k_one(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli(["gen", "fig2", "--d", "4", "--M", "10", "--out", str(inst_path)], capsys)
    code, out, _ = run_cli(["solve", "--algorithm", "relgreedy", "--eps", "2",
                            str(inst_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 1 and doc["weight"] == 88


def test_bench_builds_one_cover_per_instance(table_builds):
    # an uplink2 row and relgreedy rows of one instance share its cover
    report = bench({
        "instances": [{"kind": "random_batch", "count": 4, "n_min": 6,
                       "n_max": 9, "seed": 31},
                      {"kind": "fig2", "d": 4, "M": 10}],
        "algorithms": [{"name": "uplink2"}, {"name": "relgreedy", "eps": "1"},
                       {"name": "relgreedy", "eps": "1/2"}],
        "oracle": {"max_links": 0}})
    assert [r["status"] for r in report["rows"]] == ["ok"] * 15
    assert len(table_builds) == len(set(map(id, table_builds))) == 5


def test_bench_unknown_algorithm_key_is_an_error_row():
    # a key the runner does not read (a stale k_override, say) would run
    # another k than the one asked for; the row says so instead
    report = bench({
        "instances": [{"kind": "fig2", "d": 4, "M": 10}],
        "algorithms": [{"name": "relgreedy", "eps": "1"},
                       {"name": "relgreedy", "eps": "1/2", "k_override": 1},
                       {"name": "uplink2", "full_shadows": True}],
    })
    by_algo = {row["algorithm"]: row for row in report["rows"]}
    assert by_algo["relgreedy,eps=1"]["status"] == "ok"
    assert by_algo["relgreedy,eps=1/2"]["status"] == \
        "error: unknown algorithm keys ['k_override']"
    assert by_algo["uplink2"]["status"] == \
        "error: unknown algorithm keys ['full_shadows']"
    assert "weight" not in by_algo["relgreedy,eps=1/2"]


def test_empty_bench_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [], "algorithms": []}))
    code, out, _ = run_cli(["bench", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["rows"] == []


@pytest.mark.parametrize("config", [
    [1, 2],
    {"instances": [{"kind": "nope"}]},
    {"instances": [{"kind": "random", "seed": 1}]},
    {"instances": [{"kind": "file", "path": "no-such-instance.json"}]},
    {"instances": [{"kind": "random_batch", "count": 2, "n_min": 6, "n_max": 5}]},
    {"instances": [{"kind": "fig3", "m": 2}], "algorithms": [{"eps": "1"}]},
    {"instances": [], "oracle": {"max_links": "many"}},
    {"instances": [], "oracle": 18},
    {"instances": [{"kind": "random_batch", "count": -1, "n_max": 5}]},
    {"instances": [{"kind": "random_batch", "count": 2.5, "n_max": 4}]},
    {"instances": [{"kind": "random_batch", "count": True, "n_max": 4}]},
    {"instances": [{"kind": "random_batch", "count": 2, "n_max": "4"}]},
    {"instances": [{"kind": "random_batch", "count": 2, "n_max": 4, "links": 3.0}]},
    {"instances": [{"kind": "random", "n": 5.7, "seed": 1.9}]},
    {"instances": [{"kind": "random", "n": 5, "seed": False}]},
    {"instances": [{"kind": "fig2", "d": 3, "M": "5"}]},
    {"instances": [{"kind": "fig3", "m": 1.0}]},
    {"instances": [], "oracle": {"max_links": True}},
    {"instances": [], "oracle": {"max_links": 12.9}},
    {"instances": [], "oracle": {"max_links": "13"}},
    {"instances": [{"kind": "fig2", "d": 4, "M": 10}], "oracle": {"max_links": -1}},
])
def test_bench_rejects_bad_config(tmp_path, capsys, config):
    # a malformed config is a validation error: exit 2 and one error line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(["bench", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == "" and err.startswith(f"error: invalid config {cfg}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wtap.cli", "gen", "fig3", "--m", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["n"] == 7
