import contextlib
import gc
import hashlib
import io
import json
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import cli
from rainbowmatch.cli import _ID_OPTIONS, SOLVERS, Solver, build_parser, main
from rainbowmatch.generators import FAMILIES, gen_latin, gen_two_factorized
from rainbowmatch.graph import ColorClassKind, RainbowMatching
from rainbowmatch.solvers import SolveReport
from rainbowmatch.verification import PIPELINES, THEOREMS


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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
    {"n_vertices": 2, "n_colors": 1, "edges": [[0, 1, 0, 0]]},
    {"n_vertices": 2, "n_colors": 1, "edges": [5]},
    {"n_vertices": 2, "n_colors": 1, "edges": {}},
    {"n_vertices": 2, "n_colors": 1, "kind": "bogus", "edges": [[0, 1, 0]]},
    {"n_vertices": -1, "n_colors": 1, "edges": []},
    {"n_vertices": 4, "n_colors": -1, "edges": []},
    # would load and solve, but save_instance could not write the graph back
    {"n_vertices": 2, "n_colors": 1, "sides": ["a", "b"], "edges": [[0, 1, 0]]},
], ids=["missing_n_colors", "top_level_list", "non_integer_edge",
        "short_edge", "long_edge", "scalar_edge", "edges_object", "unknown_kind", "negative_n_vertices", "negative_n_colors",
        "non_binary_sides"])
@pytest.mark.parametrize("solver", ["exact", "sampling", "greedy"])
def test_solve_malformed_instance_exits_2(tmp_path, capsys, doc, solver):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc))
    code, out, err = run(["solve", "--solver", solver, str(inst)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad.json" in err


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
def test_solve_refuses_non_utf8_files(tmp_path, capsys, encoding):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n_vertices": 2, "n_colors": 1,
                                "edges": [[0, 1, 0]]}), encoding=encoding)
    code, out, err = run(["solve", "--solver", "greedy", str(inst)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {inst}: not a UTF-8 JSON document") and err.count("\n") == 1


def test_solve_zero_color_instance(tmp_path, capsys):
    inst = tmp_path / "empty.json"
    inst.write_text(json.dumps({"n_vertices": 4, "n_colors": 0, "edges": []}))
    code, out, _ = run(["solve", "--solver", "sampling", str(inst)], capsys)
    assert code == 0
    assert json.loads(out)["size"] == 0


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
    assert doc["manifest"]["input_digest"] == hashlib.sha256(inst.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", [["greedy"], ["augment"], ["sampling"],
                                  ["sampling", "--p", "0.3"],
                                  ["sampling", "--p", "auto"]],
                         ids=["greedy", "augment", "sampling", "sampling-p-0.3",
                              "sampling-p-auto"])
def test_solvers_run_from_cli(argv, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(["generate", "--family", "ab_bipartite", "--n", "12", "--extra", "8",
         "--seed", "3", "-o", str(inst)], capsys)
    code, out, _ = run(["solve", "--solver", *argv, "--seed", "1", str(inst)],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] >= 1


@pytest.mark.parametrize("argv, before_instance", [
    (["--solver", "augment", "--depth", "9"], False),
    (["--solver", "sampling", "--resamples", "5"], False),
    (["--solver", "augment", "--depth", "9"], True),
], ids=["depth", "resamples", "depth-before-instance"])
def test_search_knobs_are_not_options(tmp_path, capsys, argv, before_instance):
    # the path length and the attempt count are the constants every caller runs;
    # the unknown option is named even where its value took the instance's place
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    run(["generate", "--family", "ab_bipartite", "--n", "12", "--extra", "8",
         "--seed", "3", "-o", str(inst)], capsys)
    rest = [*argv, str(inst)] if before_instance else [str(inst), *argv]
    code, out, err = run(["solve", "-o", str(report), *rest], capsys)
    assert code == 2 and out == ""
    assert err == f"error: unrecognized argument: {argv[2]}\n"
    assert not report.exists()


def test_generate_offers_no_format(tmp_path, capsys):
    # an instance file is always JSON: only the report commands take --format
    inst = tmp_path / "f.json"
    code, out, err = run(["generate", "--family", "two_k4", "--format", "csv",
                          "-o", str(inst)], capsys)
    assert code == 2 and out == "" and not inst.exists()
    assert err == "error: unrecognized argument: --format\n"


# a value other than each id-specific option's default
_SET = {"n": "3", "v": "3", "m": "3", "d": "3", "extra": "3", "p": "0.3",
        "node_budget": "5"}


_SOLVE_UNREAD = [(solver, name) for solver, record in SOLVERS.items()
                 for name in _ID_OPTIONS["solve"] if name not in record.reads]
_GENERATE_UNREAD = [(family, name) for family, (_, _, reads) in FAMILIES.items()
                    for name in _ID_OPTIONS["generate"] if name not in reads]


@pytest.mark.parametrize("solver, option", _SOLVE_UNREAD)
def test_solver_refuses_an_option_it_does_not_read(tmp_path, capsys, solver, option):
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    family = ("circulant_two_factor", "--d", "5") if solver == "alspach" else (
        "latin_cayley", "--n", "5")
    run(["generate", "--family", *family, "-o", str(inst)], capsys)
    flag = "--" + option.replace("_", "-")
    code, out, err = run(["solve", "--solver", solver, flag, _SET[option],
                          "-o", str(report), str(inst)], capsys)
    assert code == 2 and out == "" and not report.exists()
    assert err == f"error: solver {solver!r} does not read {flag}\n"


@pytest.mark.parametrize("family, option", _GENERATE_UNREAD)
def test_family_refuses_an_option_it_does_not_read(tmp_path, capsys, family, option):
    inst = tmp_path / "inst.json"
    code, out, err = run(["generate", "--family", family, f"--{option}", _SET[option],
                          "-o", str(inst)], capsys)
    assert code == 2 and out == "" and not inst.exists()
    assert err == f"error: family {family!r} does not read --{option}\n"


def test_options_left_at_their_defaults_are_not_refused(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code, _, _ = run(["generate", "--family", "latin_cayley", "--n", "5",
                      "--extra", "0", "-o", str(inst)], capsys)
    assert code == 0
    code, out, _ = run(["solve", "--solver", "greedy", "--p", "auto", str(inst)],
                       capsys)
    assert code == 0 and json.loads(out)["size"] == 5


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_solver_record_names_the_options_its_entry_reads(solver, record_reads):
    record = SOLVERS[solver]
    kind, graph = ((ColorClassKind.TWO_FACTOR, gen_two_factorized(4, "circulant", 2, 1))
                   if solver == "alspach"
                   else (ColorClassKind.MATCHING, gen_latin(4, "cayley", 0)))
    assert record.kinds is None or kind in record.kinds
    options = record_reads(build_parser().parse_args(["solve", "--solver", solver, "x"]))
    record.entry(graph, options, 0)
    assert options.read == set(record.reads)


def test_every_id_option_is_read_by_some_id():
    assert {o for s in SOLVERS.values() for o in s.reads} == set(_ID_OPTIONS["solve"])
    assert {o for f in FAMILIES.values() for o in f[2]} == set(_ID_OPTIONS["generate"])


@pytest.mark.parametrize("p, message", [
    ("0", "p must lie strictly between 0 and 1"),
    ("1", "p must lie strictly between 0 and 1"),
    ("nan", "p must lie strictly between 0 and 1"),
    ("-0.5", "p must lie strictly between 0 and 1"),
    ("abc", "could not convert string to float: 'abc'"),
], ids=["zero", "one", "nan", "negative", "not-a-number"])
def test_sampling_refuses_p_outside_the_open_unit_interval(tmp_path, capsys, p,
                                                            message):
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    run(["generate", "--family", "ab_bipartite", "--n", "12", "--extra", "8",
         "--seed", "3", "-o", str(inst)], capsys)
    code, out, err = run(["solve", "--solver", "sampling", "--p", p,
                          "-o", str(report), str(inst)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert not report.exists()


def test_lemma41_is_not_a_solver(tmp_path, capsys):
    # expander_matching does not return rainbow matchings, so solve offers it not
    inst = tmp_path / "grin.json"
    run(["generate", "--family", "grinblat", "--n", "10", "--v", "24",
         "--m", "2", "--seed", "3", "-o", str(inst)], capsys)
    code, out, err = run(["solve", "--solver", "lemma41", str(inst)], capsys)
    assert code == 2 and out == ""
    assert "invalid choice: 'lemma41'" in err


def test_non_rainbow_report_is_refused(tmp_path, capsys, monkeypatch):
    def two_edges_of_color_0(graph, args, seed):
        return SolveReport(matching=RainbowMatching(pairs=[(0, 0), (1, 0)]),
                           n_colors=graph.n_colors, seed=seed)

    monkeypatch.setitem(SOLVERS, "greedy", Solver(two_edges_of_color_0))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n_vertices": 4, "n_colors": 1,
                                "edges": [[0, 1, 0], [2, 3, 0]]}))
    report = tmp_path / "report.json"
    for out_args in ([], ["-o", str(report)]):
        code, out, err = run(["solve", "--solver", "greedy", *out_args, str(inst)],
                             capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not rainbow" in err and "shared color 0" in err
    assert not report.exists()


def test_alspach_names_the_broken_two_factor(tmp_path, capsys):
    inst = tmp_path / "path.json"
    inst.write_text(json.dumps({"n_vertices": 3, "n_colors": 1,
                                "edges": [[0, 1, 0], [1, 2, 0]]}))
    code, out, err = run(["solve", "--solver", "alspach", str(inst)], capsys)
    assert code == 2 and out == ""
    assert err == ("error: colour classes are not 2-factors; first (colour, vertex) "
                   "witnesses: [(0, 0), (0, 2)]\n")


def test_alspach_solver_from_cli(tmp_path, capsys):
    inst = tmp_path / "circ.json"
    run(["generate", "--family", "circulant_two_factor", "--d", "5",
         "--extra", "20", "--seed", "3", "-o", str(inst)], capsys)
    code, out, _ = run(["solve", "--solver", "alspach", str(inst)], capsys)
    assert code == 0
    assert json.loads(out)["defect"] == 0


def test_solve_refuses_a_kind_the_solver_cannot_take(tmp_path, capsys):
    inst, report = tmp_path / "latin.json", tmp_path / "report.json"
    run(["generate", "--family", "latin_cayley", "--n", "5", "-o", str(inst)], capsys)
    code, out, err = run(["solve", "--solver", "alspach", "-o", str(report),
                          str(inst)], capsys)
    assert code == 2 and out == "" and not report.exists()
    assert err == (f"error: {inst}: solver 'alspach' takes kind two_factor or "
                   "arbitrary, not matching\n")


@pytest.mark.parametrize("argv, message", [
    (["--d", "3", "--extra", "7"], "symmetric_latin takes no extra vertices, got 7"),
    (["--d", "3", "--extra", "-1"], "symmetric_latin takes no extra vertices, got -1"),
    (["--d", "4"], "symmetric_latin: d must be odd, got 4"),
], ids=["extra-7", "extra-minus-1", "even-d"])
def test_generate_symmetric_latin_refusals(tmp_path, capsys, argv, message):
    # the construction has 2(d+1) vertices and needs an even square order d+1
    inst = tmp_path / "sym.json"
    code, out, err = run(["generate", "--family", "symmetric_latin_two_factor",
                          *argv, "-o", str(inst)], capsys)
    assert code == 2 and out == "" and not inst.exists()
    assert err == f"error: {message}\n"


def test_exact_node_budget(tmp_path, capsys):
    # the order-6 cyclic square needs 32 search nodes to certify its optimum
    inst = tmp_path / "inst.json"
    run(["generate", "--family", "latin_cayley", "--n", "6", "--seed", "3",
         "-o", str(inst)], capsys)
    for budget, optimal in (("31", False), ("32", True)):
        code, out, _ = run(["solve", "--solver", "exact", "--node-budget", budget,
                            str(inst)], capsys)
        assert code == 0 and json.loads(out)["optimal"] is optimal
    code, out, err = run(["solve", "--solver", "exact", "--node-budget", "0",
                          str(inst)], capsys)
    assert code == 2 and out == "" and "--node-budget: must be at least 1" in err


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


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_reports_reproducible_under_source_date_epoch(tmp_path, capsys, monkeypatch,
                                                      solver):
    inst = tmp_path / "i.json"
    family = (["circulant_two_factor", "--d", "5"] if solver == "alspach"
              else ["latin_cayley", "--n", "6"])
    run(["generate", "--family", *family, "--seed", "3", "-o", str(inst)], capsys)
    out_path = tmp_path / "report.json"
    argv = ["solve", "--solver", solver, "--seed", "4", "-o", str(out_path), str(inst)]
    # the solve command alone reads the clock, whichever solver it runs
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    code, _, _ = run(argv, capsys)
    elapsed_ms = json.loads(out_path.read_text())["elapsed_ms"]
    assert code == 0 and type(elapsed_ms) is int and elapsed_ms >= 0
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    outs = []
    for _ in range(2):
        code, _, _ = run(argv, capsys)
        assert code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["elapsed_ms"] == 0


def test_report_bytes_do_not_depend_on_the_work_directory(tmp_path, capsys,
                                                          monkeypatch):
    # absolute paths from two directories: the manifest names files by base name
    inst = tmp_path / "in" / "inst.json"
    inst.parent.mkdir()
    run(["generate", "--family", "ab_bipartite", "--n", "12", "--seed", "3",
         "-o", str(inst)], capsys)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    reports = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        report = tmp_path / name / "report.json"
        code, _, _ = run(["solve", "--solver", "sampling", "--seed", "4",
                          f"--out={report}", str(inst)], capsys)
        assert code == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert (json.loads(reports[0])["manifest"]["command_line"] == "rainbowmatch solve "
            "--solver sampling --seed 4 --out=report.json inst.json")


def test_manifest_cuts_each_file_argument_to_its_base_name(tmp_path, capsys,
                                                           monkeypatch):
    # the instance's relative path is a suffix of the report's absolute path
    monkeypatch.chdir(tmp_path)
    run(["generate", "--family", "two_k4", "-o", "inst.json"], capsys)
    report = tmp_path / "out" / "inst.json"
    report.parent.mkdir()
    code, _, _ = run(["solve", "--solver", "greedy", "-o", str(report), "inst.json"],
                     capsys)
    assert code == 0
    assert (json.loads(report.read_text())["manifest"]["command_line"]
            == "rainbowmatch solve --solver greedy -o inst.json inst.json")


_SMALL = st.integers(-2, 6)
_INSTANCE_DOCS = st.fixed_dictionaries(
    {"n_vertices": _SMALL, "n_colors": _SMALL,
     "edges": st.lists(st.lists(_SMALL, min_size=2, max_size=4), max_size=4)},
    optional={"kind": st.sampled_from(["matching", "clique_union", "two_factor",
                                       "arbitrary", "bogus"]),
              "sides": st.lists(_SMALL, max_size=6)})


def _quiet_main(argv):
    """Exit code and stdout of one in-process run; an exception propagates."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@settings(max_examples=40, deadline=None)
@given(doc=_INSTANCE_DOCS)
def test_solve_never_crashes(tmp_path_factory, solver, doc):
    """Exit 0 with a rainbow matching of the file's edges, or exit 2."""
    inst = tmp_path_factory.mktemp("fuzz") / "inst.json"
    inst.write_text(json.dumps(doc))
    code, out = _quiet_main(["solve", "--solver", solver, str(inst)])
    assert code in (0, 2)
    if code == 0:
        matching = json.loads(out)["matching"]
        edges = {tuple(e) for e in doc["edges"]}
        assert all(tuple(e) in edges for e in matching)
        vertices = [x for u, v, _ in matching for x in (u, v)]
        colors = [c for _, _, c in matching]
        assert len(set(vertices)) == len(vertices)
        assert len(set(colors)) == len(colors)


# sizes and trial counts at or below the smallest each checker accepts
_TINY = st.integers(-2, 2)
_TINY_LIST = st.lists(_TINY, min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs)))


@settings(max_examples=60, deadline=None)
@given(theorem=st.sampled_from(list(THEOREMS)), n=_TINY_LIST, trials=st.integers(-2, 1))
def test_verify_never_crashes(theorem, n, trials):
    """Exit 0 or 2 on small and out-of-domain sizes; no check passes on zero trials."""
    code, out = _quiet_main(["verify", "--theorem", theorem, f"--n={n}",
                             f"--trials={trials}"])
    assert code in (0, 2)
    if code == 0:
        assert json.loads(out)["cells"]


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(list(PIPELINES)), n=_TINY, surplus=_TINY_LIST,
       trials=st.integers(-2, 1))
def test_sweep_never_crashes(family, n, surplus, trials):
    """Exit 0 or 2 on small and out-of-domain values; every row ran a trial."""
    code, out = _quiet_main(["sweep", "--family", family, f"--n={n}",
                             f"--surplus={surplus}", f"--trials={trials}"])
    assert code in (0, 2)
    if code == 0:
        for row in json.loads(out)["rows"]:
            assert row["trials"] >= 1 and 0 <= row["success_fraction"] <= 1


_GEN_OPTION = st.integers(-2, 5)


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(list(FAMILIES)), n=_GEN_OPTION, v=_GEN_OPTION,
       m=_GEN_OPTION, d=_GEN_OPTION, extra=_GEN_OPTION)
def test_generate_never_crashes(tmp_path_factory, family, n, v, m, d, extra):
    """Exit 0 with a loadable file, or exit 2; never a traceback.  Only the
    options the family reads are passed, so each case reaches its generator."""
    path = tmp_path_factory.mktemp("gen") / "inst.json"
    values = {"n": n, "v": v, "m": m, "d": d, "extra": extra}
    options = [f"--{name}={values[name]}" for name in FAMILIES[family][2]]
    code, _ = _quiet_main(["generate", "--family", family, *options, "-o", str(path)])
    assert code in (0, 2)
    if code == 0:
        assert json.loads(path.read_text())["kind"] == FAMILIES[family][0].value


def _subparser(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return sub.choices[command]


def _choices(command, option):
    return next(a.choices for a in _subparser(command)._actions
                if option in a.option_strings)


@contextlib.contextmanager
def _collector(enabled):
    """Run the body with the cyclic GC enabled or disabled, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def _cyclic_garbage(argv):
    """Objects the cyclic GC frees after one main(argv), run with it disabled."""
    cli._parser()  # built once per process, on the first call; not counted
    gc.collect()
    with _collector(False):
        code, _ = _quiet_main(argv)
        assert code == 0
        return gc.collect()


def test_main_reuses_its_parser(tmp_path):
    assert _cyclic_garbage(["generate", "--family", "latin_random", "--n", "12",
                            "--seed", "1", "-o", str(tmp_path / "latin.json")]) == 0


# main runs a command with the cyclic GC paused, which is safe only while no
# command's cyclic garbage grows with its work.  Each size is a small one the
# checker passes at.
_SMALL_N = {"grinblat_weak": 9, "grinblat_strong": 16, "ab_bipartite_strong": 16,
            "ab_general_strong": 16, "grinblat_multiplicity": 16, "alspach_strong": 5,
            "multiplicity_lb": 5, "expander_full": 8, "edge_disjoint": 16,
            "reduction_lift": 3}


@pytest.mark.parametrize("theorem", [t for t in THEOREMS if THEOREMS[t].seeded])
def test_verify_cycles_do_not_grow_with_trials(theorem):
    one, three = (_cyclic_garbage(["verify", "--theorem", theorem,
                                   "--n", str(_SMALL_N[theorem]), "--trials", str(k)])
                  for k in (1, 3))
    assert three <= one


@pytest.mark.parametrize("family", list(PIPELINES))
def test_sweep_cycles_do_not_grow_with_trials(family):
    one, three = (_cyclic_garbage(["sweep", "--family", family, "--n", "16",
                                   "--surplus", "0", "--trials", str(k)])
                  for k in (1, 3))
    assert three <= one


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_no_solver_leaves_more_cycles_than_greedy(tmp_path, solver):
    # a solve report's indent=2 encoder leaves a few cycles of its own; the
    # sampling solver, whose augment calls once left thousands, adds none
    inst = str(tmp_path / "circulant.json")  # a kind every solver takes
    assert _quiet_main(["generate", "--family", "circulant_two_factor", "--d", "10",
                        "--extra", "6", "-o", inst])[0] == 0
    greedy = _cyclic_garbage(["solve", "--solver", "greedy", inst])
    assert _cyclic_garbage(["solve", "--solver", solver, inst]) <= greedy


def _raise(args, argv):
    raise RuntimeError("handler failed")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_the_caller_had_it(tmp_path, monkeypatch, enabled):
    """However the command ends, main re-enables a collector it paused; a
    disabled one stays disabled, and main runs no collection."""
    bad = tmp_path / "bad.json"
    bad.write_text("[[0, 1, 0]]")
    monkeypatch.setattr(cli, "_cmd_verify", _raise)
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(record)
    try:
        with _collector(enabled):
            for argv, code in (
                    (["generate", "--family", "two_k4", "-o", str(tmp_path / "k4.json")], 0),
                    (["solve", "--solver", "greedy", str(bad)], 2)):
                assert _quiet_main(argv)[0] == code
                assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError, match="handler failed"):
                _quiet_main(["verify", "--theorem", "two_k4_lb"])
            assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(record)
    if not enabled:
        assert collections == []


def test_main_frees_an_old_cycle_within_one_full_collection_period(tmp_path):
    """An in-process caller's oldest generation is still collected: main's
    closing collection is a full one once every gc.get_threshold()[2] calls."""
    class Node:
        pass

    node = Node()
    node.self = node
    freed = weakref.ref(node)
    argv = ["generate", "--family", "two_k4", "-o", str(tmp_path / "k4.json")]
    with _collector(True):
        gc.collect()  # the live cycle moves to the oldest generation
        del node
        for _ in range(gc.get_threshold()[2] + 1):
            assert _quiet_main(argv)[0] == 0
            if freed() is None:
                break
        assert freed() is None


def test_each_id_option_takes_its_choices_from_one_table():
    assert _choices("generate", "--family") == list(FAMILIES)
    assert _choices("verify", "--theorem") == list(THEOREMS)
    assert _choices("sweep", "--family") == list(PIPELINES)
    assert _choices("solve", "--solver") == list(SOLVERS)


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "two_k4_lb", "--n", ","],
    ["verify", "--theorem", "grinblat_weak", "--n="],
    ["sweep", "--family", "grinblat", "--n", "4", "--surplus", ","],
], ids=["verify-comma", "verify-blank", "sweep-comma"])
def test_empty_grids_exit_2(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: no ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "grinblat_weak", "--trials", "-1"],
    ["verify", "--theorem", "grinblat_weak", "--trials", "0"],
    ["sweep", "--family", "grinblat", "--n", "4", "--surplus", "1", "--trials", "-2"],
], ids=["verify-negative", "verify-zero", "sweep-negative"])
def test_trials_below_one_are_usage_errors(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "--trials: must be at least 1" in err


@pytest.mark.parametrize("theorem", ["grinblat_strong", "ab_bipartite_strong",
                                     "ab_general_strong", "grinblat_multiplicity",
                                     "alspach_strong"])
def test_verify_negative_n_exits_2(capsys, theorem):
    code, out, err = run(["verify", "--theorem", theorem, "--n", "-1", "--trials", "1"],
                         capsys)
    assert code == 2 and out == ""
    assert err == "error: n must be at least 1, got -1\n"


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_lists_exactly_the_solvers():
    ids = re.findall(r"^\| `(\w+)` \|", _readme(), flags=re.MULTILINE)
    assert sorted(ids) == sorted(SOLVERS)


def test_readme_names_only_flags_its_command_has():
    # "### <command>" runs to the next heading; each --flag in it is checked
    sections = re.findall(r"^### (\w+)\n(.*?)(?=^#|\Z)", _readme(),
                          flags=re.MULTILINE | re.DOTALL)
    assert [command for command, _ in sections] == ["generate", "solve",
                                                    "verify", "sweep"]
    for command, text in sections:
        options = {s for a in _subparser(command)._actions for s in a.option_strings}
        flags = set(re.findall(r"--[a-z][a-z-]*", text))
        assert flags <= options, (command, sorted(flags - options))


@pytest.mark.parametrize("argv, message", [
    (["verify", "--theorem", "two_k4_lb", "--n", "1"], "two_k4_lb has only n = 3, got 1"),
    (["verify", "--theorem", "two_k4_lb", "--n", "3,4"], "two_k4_lb has only n = 3, got 4"),
    (["verify", "--theorem", "triangle_lb", "--n", "1,1", "--trials", "1"],
     "n values must be distinct, got [1, 1]"),
    # these checkers read no seed, so every trial would replay the first
    (["verify", "--theorem", "triangle_lb", "--n", "5", "--trials", "3"],
     "triangle_lb reads no seed: trials must be 1, got 3"),
    (["verify", "--theorem", "two_k4_lb", "--trials", "2"],
     "two_k4_lb reads no seed: trials must be 1, got 2"),
    (["verify", "--theorem", "latin_optimum", "--trials", "2"],
     "latin_optimum reads no seed: trials must be 1, got 2"),
], ids=["two-k4-n1", "two-k4-n4", "repeated-n", "triangle-trials-3", "two-k4-trials-2",
        "latin-optimum-trials-2"])
def test_verify_refuses_cells_it_cannot_check(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_sweep_refuses_repeated_surplus(capsys):
    code, out, err = run(["sweep", "--family", "ab_bipartite", "--n", "8",
                          "--surplus", "4,4", "--trials", "2"], capsys)
    assert code == 2 and out == ""
    assert err == "error: surplus values must be distinct, got [4, 4]\n"
