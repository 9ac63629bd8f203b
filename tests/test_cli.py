import json

import pytest

from rainbowmatch.cli import main, parse_duration


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_duration_parser():
    assert parse_duration("30s") == 30.0
    assert parse_duration("1500ms") == 1.5
    with pytest.raises(Exception):
        parse_duration("5m")


def test_generate_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(["generate", "--family", "two_k4", "--seed", "1",
                          "-o", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_writes_canonical_schema(tmp_path, capsys):
    path = tmp_path / "latin.json"
    code, _, _ = run(["generate", "--family", "latin_cayley", "--n", "5",
                      "--seed", "0", "-o", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["n_vertices"] == 10 and doc["n_colors"] == 5
    assert doc["kind"] == "matching"


def test_solve_missing_file_exits_2(capsys):
    code, _, err = run(["solve", "--solver", "exact", "missing.json"], capsys)
    assert code == 2
    assert "missing.json" in err


@pytest.mark.parametrize("doc", [
    {"n_vertices": 2, "kind": "matching", "edges": [[0, 1, 0]]},
    [[0, 1, 0]],
    {"n_vertices": 2, "n_colors": 1, "edges": [[0, 1.5, 0]]},
    {"n_vertices": 2, "n_colors": 1, "edges": [[0, 1]]},
    {"n_vertices": 2, "n_colors": 1, "kind": "bogus", "edges": [[0, 1, 0]]},
], ids=["missing_n_colors", "top_level_list", "non_integer_edge",
        "short_edge", "unknown_kind"])
def test_solve_malformed_instance_exits_2(tmp_path, capsys, doc):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc))
    code, out, err = run(["solve", "--solver", "exact", str(inst)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad.json" in err


def test_solve_report_schema(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(["generate", "--family", "latin_cayley", "--n", "6", "--seed", "3",
         "-o", str(inst)], capsys)
    code, out, _ = run(["solve", "--solver", "exact", "--seed", "5", str(inst)],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    for key in ("size", "defect", "missing_colors", "matching", "phases",
                "seed", "elapsed_ms", "optimal", "manifest"):
        assert key in doc
    assert doc["size"] == 5 and doc["optimal"] is True
    assert doc["manifest"]["input_digest"]


@pytest.mark.parametrize("solver", ["greedy", "augment", "sampling"])
def test_solvers_run_from_cli(solver, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(["generate", "--family", "ab_bipartite", "--n", "12", "--extra", "8",
         "--seed", "3", "-o", str(inst)], capsys)
    code, out, _ = run(["solve", "--solver", solver, "--seed", "1", str(inst)],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] >= 1


def test_lemma41_solver_from_cli(tmp_path, capsys):
    inst = tmp_path / "grin.json"
    run(["generate", "--family", "grinblat", "--n", "10", "--v", "24",
         "--m", "2", "--seed", "3", "-o", str(inst)], capsys)
    code, out, _ = run(["solve", "--solver", "lemma41", str(inst)], capsys)
    assert code == 0
    assert json.loads(out)["size"] >= 10


def test_alspach_solver_from_cli(tmp_path, capsys):
    inst = tmp_path / "circ.json"
    run(["generate", "--family", "circulant_two_factor", "--d", "5",
         "--extra", "20", "--seed", "3", "-o", str(inst)], capsys)
    code, out, _ = run(["solve", "--solver", "alspach", str(inst)], capsys)
    assert code == 0
    assert json.loads(out)["defect"] == 0


def test_verify_exit_codes(capsys):
    code, out, _ = run(["verify", "--theorem", "triangle_lb", "--n", "4,5,6",
                        "--trials", "1", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["pass_rate"] == 1.0


def test_verify_csv_output(capsys):
    code, out, _ = run(["verify", "--theorem", "two_k4_lb", "--format", "csv"],
                       capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,trial,pass,margin,instance_seed,solver_seed"
    assert len(lines) == 2


def test_sweep_from_cli(capsys):
    code, out, _ = run(["sweep", "--family", "ab_bipartite", "--n", "12",
                        "--surplus", "12", "--trials", "3", "--seed", "1"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["success_fraction"] == 1.0


def test_usage_error_exits_2(capsys):
    assert main(["solve"]) == 2
    assert main(["frobnicate"]) == 2


def test_rainbow_seed_env_used_when_flag_absent(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "i.json"
    run(["generate", "--family", "ab_general", "--n", "10", "--extra", "4",
         "--seed", "5", "-o", str(inst)], capsys)
    monkeypatch.setenv("RAINBOW_SEED", "99")
    code, out, _ = run(["solve", "--solver", "sampling", str(inst)], capsys)
    assert json.loads(out)["seed"] == 99
    code, out, _ = run(["solve", "--solver", "sampling", "--seed", "3",
                        str(inst)], capsys)
    assert json.loads(out)["seed"] == 3  # flag wins


def test_reports_reproducible_under_source_date_epoch(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    inst = tmp_path / "i.json"
    run(["generate", "--family", "latin_cayley", "--n", "6", "--seed", "3",
         "-o", str(inst)], capsys)
    out_path = tmp_path / "report.json"
    outs = []
    for _ in range(2):
        code, _, _ = run(["solve", "--solver", "sampling", "--seed", "4",
                          "-o", str(out_path), str(inst)], capsys)
        assert code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]
