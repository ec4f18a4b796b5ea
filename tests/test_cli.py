"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wtap
from wtap.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":3,"root":0,"edges":[[0,1],[1,2]],'
                   '"links":[{"u":0,"v":1,"w":2}]}')
    code, _, err = run_cli(["solve", "--algorithm", "uplink2", str(bad)], capsys)
    assert code == 2
    assert "UncoverableEdge" in err


def test_malformed_text_exit_code(tmp_path, capsys):
    # A truncated file and a link line without a weight: an error line, no traceback.
    for i, doc in enumerate(["3 0\n0 1\n", "3 0\n0 1\n1 2\n1\n0 2\n"]):
        bad = tmp_path / f"bad{i}.txt"
        bad.write_text(doc)
        code, out, err = run_cli(["solve", "--algorithm", "uplink2", str(bad)], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: cannot parse instance")


@pytest.mark.parametrize("args, flag", [
    (["solve", "--algorithm", "relgreedy", "--eps", "0"], "--eps"),
    (["solve", "--algorithm", "relgreedy", "--eps=-1/2"], "--eps"),
    (["solve", "--algorithm", "relgreedy", "--k-override", "0"], "--k-override"),
    (["ratio", "--k", "0"], "--k"),
    (["component", "--rho", "1/2", "--k", "0"], "--k"),
    (["component", "--rho", "-1", "--k", "2"], "--rho"),
    (["decompose", "--eps", "0", "--solution", "sol.json"], "--eps"),
])
def test_bad_argument_exit_code(tmp_path, capsys, args, flag):
    # out-of-range numbers are usage errors: exit 2 and an error line
    inst_path = tmp_path / "inst.json"
    run_cli(["gen", "fig2", "--d", "3", "--M", "5", "--out", str(inst_path)], capsys)
    with pytest.raises(SystemExit) as exc:
        main(args + [str(inst_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err and "Traceback" not in err


def test_budget_exit_code(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli(["gen", "random", "--n", "8", "--links", "12", "--seed", "1",
             "--out", str(inst_path)], capsys)
    code, _, err = run_cli(["exact", "--max-links", "3", str(inst_path)], capsys)
    assert code == 3


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


def test_solving_does_not_import_numpy():
    # only the random generators need numpy, and they import it on first use
    code = ("import sys, wtap, wtap.bench, wtap.cli; "
            "sys.exit('numpy' in sys.modules)")
    src = str(Path(wtap.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr.decode()


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


def test_solve_k_override_flag(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli(["gen", "fig2", "--d", "4", "--M", "10", "--out", str(inst_path)], capsys)
    code, out, _ = run_cli(["solve", "--algorithm", "relgreedy", "--eps", "1",
                            "--k-override", "1", str(inst_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 1 and doc["weight"] == 88


def test_empty_bench_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [], "algorithms": []}))
    code, out, _ = run_cli(["bench", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wtap.cli", "gen", "fig3", "--m", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["n"] == 7
